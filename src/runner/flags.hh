/**
 * @file
 * Tiny dependency-free command-line flag parser for the leakyhammer
 * CLI and the example binaries. Flags are `--name value` or
 * `--name=value`; bools take no value. Parsing is strict: an unknown
 * flag, a bare argument, a missing value, or a malformed number is an
 * error — callers must exit non-zero instead of silently falling back
 * to defaults.
 */

#ifndef LEAKY_RUNNER_FLAGS_HH
#define LEAKY_RUNNER_FLAGS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace leaky::runner {

/** Declarative flag set bound to caller-owned storage. */
class FlagParser
{
  public:
    void addBool(const std::string &name, bool *target,
                 const std::string &help);
    void addUint(const std::string &name, std::uint32_t *target,
                 const std::string &help);
    void addUint64(const std::string &name, std::uint64_t *target,
                   const std::string &help);
    void addDouble(const std::string &name, double *target,
                   const std::string &help);
    void addString(const std::string &name, std::string *target,
                   const std::string &help);

    /**
     * Parse argv[0..argc); on failure fills @p error and returns
     * false. Bound targets keep their pre-set values as defaults but
     * are only *kept* when the flag is absent — a present-but-bad
     * value always fails.
     */
    bool parse(int argc, char **argv, std::string *error);

    /** One "  --name <type>  help" line per flag. */
    std::string helpText() const;

  private:
    enum class Type { kBool, kUint, kUint64, kDouble, kString };
    struct Flag {
        std::string name;
        Type type;
        void *target;
        std::string help;
    };

    const Flag *find(const std::string &name) const;
    static bool setValue(const Flag &flag, const std::string &text);

    std::vector<Flag> flags_;
};

/** Strict numeric parses (whole string must convert; no fallback). */
bool parseUint32(const std::string &text, std::uint32_t *value);
bool parseUint64(const std::string &text, std::uint64_t *value);
bool parseDouble(const std::string &text, double *value);

} // namespace leaky::runner

#endif // LEAKY_RUNNER_FLAGS_HH
