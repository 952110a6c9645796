/**
 * @file
 * Physical-address <-> DRAM-coordinate mapping. AddressMapper is the
 * system-facing wrapper around dram::MappingFunction (see mapping.hh):
 * it compiles a MappingSpec against the channel geometry, wraps
 * physical addresses into the mapped capacity, and fills the flat-bank
 * caches hot paths downstream rely on. The inverse mapping (compose)
 * is what attack processes use to "massage" pages into chosen
 * rows/banks after reverse engineering the mapping, as described in
 * §5.2 of the paper.
 */

#ifndef LEAKY_DRAM_ADDRESS_MAPPER_HH
#define LEAKY_DRAM_ADDRESS_MAPPER_HH

#include <cstdint>

#include "dram/config.hh"
#include "dram/mapping.hh"
#include "dram/types.hh"

namespace leaky::dram {

/** Maps 64-bit physical addresses to DRAM coordinates and back. */
class AddressMapper
{
  public:
    static constexpr std::uint32_t kLineBytes =
        MappingFunction::kLineBytes;

    /**
     * @param org Channel geometry.
     * @param channels Number of channels in the system.
     * @param spec Mapping description — a preset (implicitly
     *        convertible), field order, or explicit XOR matrix.
     *        Compilation asserts the spec is invertible against the
     *        geometry; a non-invertible function would silently
     *        corrupt decode/compose round trips.
     */
    AddressMapper(const Organization &org, std::uint32_t channels = 1,
                  const MappingSpec &spec = {});

    /** Decode a physical byte address into DRAM coordinates. */
    Address decode(std::uint64_t phys_addr) const;

    /** Encode coordinates back into a physical (line-aligned) address. */
    std::uint64_t
    compose(const Address &addr) const
    {
        return fn_.compose(addr);
    }

    /** Size of the mapped physical address space in bytes. */
    std::uint64_t capacityBytes() const { return fn_.capacityBytes(); }

    std::uint32_t channels() const { return fn_.channels(); }

    /** Channel geometry this mapper was built for. */
    const Organization &org() const { return org_; }

    /** The compiled mapping function (ground-truth XOR masks etc.). */
    const MappingFunction &fn() const { return fn_; }

    /** The declarative spec this mapper was compiled from. */
    const MappingSpec &spec() const { return fn_.spec(); }

  private:
    Organization org_;
    MappingFunction fn_;
};

} // namespace leaky::dram

#endif // LEAKY_DRAM_ADDRESS_MAPPER_HH
