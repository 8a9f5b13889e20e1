/**
 * @file
 * Shared command-line option parser for the lemons CLIs.
 *
 * Before this header, lemons-lint, lemons-fleet, and lemons-bench each
 * hand-rolled an argv loop with its own quirks (one accepted
 * "--opt=value" only, one accepted "--opt value" only, one of them
 * both), so flags behaved differently across binaries that are meant
 * to compose in scripts. ArgParser gives them one grammar:
 *
 *   - boolean flags:            --werror
 *   - valued options:           --threads 8   or   --threads=8
 *   - optional-value options:   --json        or   --json=out.json
 *   - positional operands:      spec files, subcommands
 *
 * --help output is generated from the registered options, so the usage
 * text can never drift from what the binary actually accepts. Unknown
 * options and malformed values are hard errors: parse() returns
 * Outcome::Error with a one-line message, and the caller exits 2 (the
 * shared usage-error exit code across the CLIs).
 *
 * The parser is deliberately small: no subcommand trees, no short-flag
 * bundling, no locale-dependent number parsing. Numeric values go
 * through std::strtoull / std::strtod with full-token validation, so
 * "--threads 8x" is rejected instead of silently parsing as 8.
 */

#ifndef LEMONS_UTIL_ARGPARSE_H_
#define LEMONS_UTIL_ARGPARSE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace lemons {

/**
 * Declarative argv parser. Register options against caller-owned
 * targets, then call parse(); targets are written only for options
 * that actually appear, so defaults live in the caller's struct.
 */
class ArgParser
{
  public:
    /** How a parse() call ended. */
    enum class Outcome {
        Ok,    ///< all argv consumed; targets updated
        Help,  ///< --help/-h seen; help text printed to stdout
        Error, ///< unknown option or malformed value; see error()
    };

    /**
     * @param program Binary name for usage/error lines ("lemons-lint").
     * @param summary One-paragraph description printed under usage.
     */
    ArgParser(std::string program, std::string summary);

    /** Boolean flag: presence sets @p target to true. */
    ArgParser &flag(std::string name, bool *target, std::string help);

    /** Valued option (string). Accepts --name value and --name=value. */
    ArgParser &value(std::string name, std::string *target,
                     std::string metavar, std::string help);

    /** Valued option parsed as an unsigned 64-bit integer. */
    ArgParser &value(std::string name, uint64_t *target,
                     std::string metavar, std::string help);

    /** Valued option parsed as an unsigned int (thread counts). */
    ArgParser &value(std::string name, unsigned *target,
                     std::string metavar, std::string help);

    /** Valued option parsed as a double. */
    ArgParser &value(std::string name, double *target,
                     std::string metavar, std::string help);

    /** Valued option into an optional (distinguishes "absent"). */
    ArgParser &value(std::string name, std::optional<uint64_t> *target,
                     std::string metavar, std::string help);

    /**
     * Flag with an optional inline value: "--json" sets @p present,
     * "--json=path" additionally overwrites @p valueTarget. A separate
     * "--json path" is NOT consumed as a value (the next token stays
     * positional), matching the historical lemons-bench grammar.
     */
    ArgParser &optionalValue(std::string name, bool *present,
                             std::string *valueTarget, std::string metavar,
                             std::string help);

    /**
     * Declare the positional operands line for usage ("<spec-file>...")
     * and where to collect them. Without this, positionals are errors.
     */
    ArgParser &positionals(std::string metavar,
                           std::vector<std::string> *target,
                           std::string help);

    /** Extra free-form lines appended to the help text (examples). */
    ArgParser &epilog(std::string text);

    /**
     * Parse argv. On Outcome::Error, error() holds a one-line message
     * (already prefixed with the program name) and usage went nowhere —
     * the caller decides whether to print help.
     */
    Outcome parse(int argc, const char *const *argv);

    /** The failure message after Outcome::Error. */
    const std::string &error() const { return failure; }

    /** The generated --help text. */
    std::string helpText() const;

  private:
    enum class Kind { Flag, Value, OptionalValue };

    struct Option
    {
        std::string name; ///< including leading dashes ("--werror")
        Kind kind = Kind::Flag;
        std::string metavar;
        std::string help;
        bool *flagTarget = nullptr;
        /** Value sink; receives the raw token, returns false when
         *  malformed (the parser prefixes the error context). */
        std::function<bool(const std::string &)> sink;
    };

    Option *find(const std::string &name);
    ArgParser &add(Option option);
    Outcome fail(std::string message);

    std::string program;
    std::string summary;
    std::string extra;
    std::vector<Option> options;
    std::string positionalMetavar;
    std::string positionalHelp;
    std::vector<std::string> *positionalTarget = nullptr;
    std::string failure;
};

} // namespace lemons

#endif // LEMONS_UTIL_ARGPARSE_H_
