#include "sim/logging.hh"

namespace leaky::sim::detail {

void
terminate(const char *kind, const std::string &msg, bool core_dump)
{
    std::fprintf(stderr, "%s: %s\n", kind, msg.c_str());
    if (core_dump)
        std::abort();
    std::exit(1);
}

void
assertFail(const char *cond, const std::string &msg)
{
    terminate("panic", "assertion '" + std::string(cond) +
                           "' failed: " + msg,
              true);
}

} // namespace leaky::sim::detail
