#include "runner/flags.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>

namespace leaky::runner {

bool
parseUint64(const std::string &text, std::uint64_t *value)
{
    if (text.empty() || text[0] == '-' || text[0] == '+')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *value = parsed;
    return true;
}

bool
parseUint32(const std::string &text, std::uint32_t *value)
{
    std::uint64_t wide = 0;
    if (!parseUint64(text, &wide) ||
        wide > std::numeric_limits<std::uint32_t>::max())
        return false;
    *value = static_cast<std::uint32_t>(wide);
    return true;
}

bool
parseDouble(const std::string &text, double *value)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *value = parsed;
    return true;
}

void
FlagParser::addBool(const std::string &name, bool *target,
                    const std::string &help)
{
    flags_.push_back({name, Type::kBool, target, help});
}

void
FlagParser::addUint(const std::string &name, std::uint32_t *target,
                    const std::string &help)
{
    flags_.push_back({name, Type::kUint, target, help});
}

void
FlagParser::addUint64(const std::string &name, std::uint64_t *target,
                      const std::string &help)
{
    flags_.push_back({name, Type::kUint64, target, help});
}

void
FlagParser::addDouble(const std::string &name, double *target,
                      const std::string &help)
{
    flags_.push_back({name, Type::kDouble, target, help});
}

void
FlagParser::addString(const std::string &name, std::string *target,
                      const std::string &help)
{
    flags_.push_back({name, Type::kString, target, help});
}

const FlagParser::Flag *
FlagParser::find(const std::string &name) const
{
    for (const auto &flag : flags_)
        if (flag.name == name)
            return &flag;
    return nullptr;
}

bool
FlagParser::setValue(const Flag &flag, const std::string &text)
{
    switch (flag.type) {
      case Type::kBool:
        return false; // Bools never take a value.
      case Type::kUint:
        return parseUint32(text, static_cast<std::uint32_t *>(flag.target));
      case Type::kUint64:
        return parseUint64(text, static_cast<std::uint64_t *>(flag.target));
      case Type::kDouble:
        return parseDouble(text, static_cast<double *>(flag.target));
      case Type::kString:
        *static_cast<std::string *>(flag.target) = text;
        return true;
    }
    return false;
}

bool
FlagParser::parse(int argc, char **argv, std::string *error)
{
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            *error = "unexpected argument '" + arg + "'";
            return false;
        }

        std::string name = arg.substr(2);
        std::string inline_value;
        bool has_inline = false;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            inline_value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_inline = true;
        }

        const Flag *flag = find(name);
        if (flag == nullptr) {
            *error = "unknown flag '--" + name + "'";
            return false;
        }
        if (flag->type == Type::kBool) {
            if (has_inline) {
                *error = "flag '--" + name + "' takes no value";
                return false;
            }
            *static_cast<bool *>(flag->target) = true;
            continue;
        }

        std::string value;
        if (has_inline) {
            value = inline_value;
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            *error = "flag '--" + name + "' needs a value";
            return false;
        }
        if (!setValue(*flag, value)) {
            *error = "bad value '" + value + "' for flag '--" + name + "'";
            return false;
        }
    }
    return true;
}

std::string
FlagParser::helpText() const
{
    static const char *kTypeNames[] = {"", " <n>", " <n>", " <x>",
                                       " <s>"};
    std::string out;
    for (const auto &flag : flags_) {
        std::string head =
            "  --" + flag.name + kTypeNames[static_cast<int>(flag.type)];
        if (head.size() < 24)
            head.resize(24, ' ');
        out += head + " " + flag.help + "\n";
    }
    return out;
}

} // namespace leaky::runner
