#include "util/argparse.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

namespace lemons {

namespace {

/** Full-token strtoull: rejects "8x", "-1", " -1", and empty strings. */
bool
parseUint64(const std::string &token, uint64_t &out)
{
    // strtoull skips leading whitespace and then negates a '-' into a
    // huge value, so look past the whitespace for the sign.
    const size_t first = token.find_first_not_of(" \t\n\v\f\r");
    if (first == std::string::npos || token[first] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(token.c_str(), &end, 0);
    if (errno != 0 || end == token.c_str() || *end != '\0')
        return false;
    out = parsed;
    return true;
}

/** Full-token strtod: rejects trailing garbage and empty strings. */
bool
parseDouble(const std::string &token, double &out)
{
    if (token.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (errno != 0 || end == token.c_str() || *end != '\0')
        return false;
    out = parsed;
    return true;
}

} // namespace

ArgParser::ArgParser(std::string programName, std::string summaryText)
    : program(std::move(programName)), summary(std::move(summaryText))
{
}

ArgParser &
ArgParser::add(Option option)
{
    options.push_back(std::move(option));
    return *this;
}

ArgParser &
ArgParser::flag(std::string name, bool *target, std::string help)
{
    Option option;
    option.name = std::move(name);
    option.kind = Kind::Flag;
    option.help = std::move(help);
    option.flagTarget = target;
    return add(std::move(option));
}

ArgParser &
ArgParser::value(std::string name, std::string *target,
                 std::string metavar, std::string help)
{
    Option option;
    option.name = std::move(name);
    option.kind = Kind::Value;
    option.metavar = std::move(metavar);
    option.help = std::move(help);
    option.sink = [target](const std::string &token) {
        *target = token;
        return true;
    };
    return add(std::move(option));
}

ArgParser &
ArgParser::value(std::string name, uint64_t *target, std::string metavar,
                 std::string help)
{
    Option option;
    option.name = std::move(name);
    option.kind = Kind::Value;
    option.metavar = std::move(metavar);
    option.help = std::move(help);
    option.sink = [target](const std::string &token) {
        return parseUint64(token, *target);
    };
    return add(std::move(option));
}

ArgParser &
ArgParser::value(std::string name, unsigned *target, std::string metavar,
                 std::string help)
{
    Option option;
    option.name = std::move(name);
    option.kind = Kind::Value;
    option.metavar = std::move(metavar);
    option.help = std::move(help);
    option.sink = [target](const std::string &token) {
        uint64_t wide = 0;
        if (!parseUint64(token, wide) ||
            wide > std::numeric_limits<unsigned>::max())
            return false;
        *target = static_cast<unsigned>(wide);
        return true;
    };
    return add(std::move(option));
}

ArgParser &
ArgParser::value(std::string name, double *target, std::string metavar,
                 std::string help)
{
    Option option;
    option.name = std::move(name);
    option.kind = Kind::Value;
    option.metavar = std::move(metavar);
    option.help = std::move(help);
    option.sink = [target](const std::string &token) {
        return parseDouble(token, *target);
    };
    return add(std::move(option));
}

ArgParser &
ArgParser::value(std::string name, std::optional<uint64_t> *target,
                 std::string metavar, std::string help)
{
    Option option;
    option.name = std::move(name);
    option.kind = Kind::Value;
    option.metavar = std::move(metavar);
    option.help = std::move(help);
    option.sink = [target](const std::string &token) {
        uint64_t parsed = 0;
        if (!parseUint64(token, parsed))
            return false;
        *target = parsed;
        return true;
    };
    return add(std::move(option));
}

ArgParser &
ArgParser::optionalValue(std::string name, bool *present,
                         std::string *valueTarget, std::string metavar,
                         std::string help)
{
    Option option;
    option.name = std::move(name);
    option.kind = Kind::OptionalValue;
    option.metavar = std::move(metavar);
    option.help = std::move(help);
    option.flagTarget = present;
    option.sink = [valueTarget](const std::string &token) {
        *valueTarget = token;
        return true;
    };
    return add(std::move(option));
}

ArgParser &
ArgParser::positionals(std::string metavar,
                       std::vector<std::string> *target, std::string help)
{
    positionalMetavar = std::move(metavar);
    positionalHelp = std::move(help);
    positionalTarget = target;
    return *this;
}

ArgParser &
ArgParser::epilog(std::string text)
{
    extra = std::move(text);
    return *this;
}

ArgParser::Option *
ArgParser::find(const std::string &name)
{
    const auto it = std::find_if(
        options.begin(), options.end(),
        [&](const Option &option) { return option.name == name; });
    return it == options.end() ? nullptr : &*it;
}

ArgParser::Outcome
ArgParser::fail(std::string message)
{
    failure = program + ": " + std::move(message);
    return Outcome::Error;
}

ArgParser::Outcome
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << helpText();
            return Outcome::Help;
        }
        if (arg.empty() || arg.front() != '-' || arg == "-") {
            if (positionalTarget == nullptr)
                return fail("unexpected operand '" + arg + "'");
            positionalTarget->push_back(std::move(arg));
            continue;
        }

        // Split "--name=value" once; inlineValue survives the lookup.
        std::optional<std::string> inlineValue;
        const size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            inlineValue = arg.substr(eq + 1);
            arg.resize(eq);
        }

        Option *option = find(arg);
        if (option == nullptr)
            return fail("unknown option '" + arg + "'");

        switch (option->kind) {
        case Kind::Flag:
            if (inlineValue)
                return fail("option '" + arg + "' takes no value");
            *option->flagTarget = true;
            break;
        case Kind::OptionalValue:
            *option->flagTarget = true;
            if (inlineValue && !option->sink(*inlineValue))
                return fail("malformed value '" + *inlineValue +
                            "' for option '" + arg + "'");
            break;
        case Kind::Value: {
            std::string token;
            if (inlineValue) {
                token = *inlineValue;
            } else {
                if (i + 1 >= argc)
                    return fail("option '" + arg + "' needs a value");
                token = argv[++i];
            }
            if (!option->sink(token))
                return fail("malformed value '" + token +
                            "' for option '" + arg + "'");
            break;
        }
        }
    }
    return Outcome::Ok;
}

std::string
ArgParser::helpText() const
{
    std::ostringstream out;
    out << "usage: " << program << " [options]";
    if (positionalTarget != nullptr)
        out << " " << positionalMetavar;
    out << "\n\n" << summary << "\n\noptions:\n";

    // Column layout: pad every "--name METAVAR" cell to the widest.
    std::vector<std::string> cells;
    cells.reserve(options.size());
    size_t width = 0;
    for (const Option &option : options) {
        std::string cell = option.name;
        if (option.kind == Kind::Value)
            cell += " " + option.metavar;
        else if (option.kind == Kind::OptionalValue)
            cell += "[=" + option.metavar + "]";
        width = std::max(width, cell.size());
        cells.push_back(std::move(cell));
    }
    width = std::max(width, std::string("--help").size());
    for (size_t i = 0; i < options.size(); ++i)
        out << "  " << cells[i]
            << std::string(width - cells[i].size() + 2, ' ')
            << options[i].help << "\n";
    out << "  --help" << std::string(width - 6 + 2, ' ')
        << "print this text and exit\n";
    if (positionalTarget != nullptr && !positionalHelp.empty())
        out << "\n" << positionalMetavar << ": " << positionalHelp << "\n";
    if (!extra.empty())
        out << "\n" << extra;
    return out.str();
}

} // namespace lemons
