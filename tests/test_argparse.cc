/**
 * @file
 * Unit tests for the shared CLI option parser (util/argparse.h): the
 * one grammar lemons-lint, lemons-fleet, and lemons-bench now share.
 * Covers both value spellings (--opt value, --opt=value), every typed
 * sink, the optional-value grammar lemons-bench's --json[=PATH]
 * relies on, and the negative space — unknown options, missing and
 * malformed values, unexpected positionals — which must all land in
 * Outcome::Error with a one-line message so the CLIs exit 2.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/argparse.h"

namespace lemons {
namespace {

/** Run @p parser over a brace-list argv (argv[0] is prepended). */
ArgParser::Outcome
parse(ArgParser &parser, std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return parser.parse(static_cast<int>(args.size()), args.data());
}

TEST(ArgParse, FlagsAndBothValueSpellings)
{
    bool werror = false;
    unsigned threads = 1;
    uint64_t seed = 7;
    double scale = 1.0;
    std::string path;

    ArgParser parser("prog", "test");
    parser.flag("--werror", &werror, "w");
    parser.value("--threads", &threads, "N", "t");
    parser.value("--seed", &seed, "N", "s");
    parser.value("--scale", &scale, "F", "f");
    parser.value("--out", &path, "PATH", "o");

    EXPECT_EQ(parse(parser,
                    {"--werror", "--threads", "8", "--seed=42",
                     "--scale=0.25", "--out", "a.json"}),
              ArgParser::Outcome::Ok);
    EXPECT_TRUE(werror);
    EXPECT_EQ(threads, 8u);
    EXPECT_EQ(seed, 42u);
    EXPECT_DOUBLE_EQ(scale, 0.25);
    EXPECT_EQ(path, "a.json");
}

TEST(ArgParse, DefaultsSurviveWhenOptionsAbsent)
{
    unsigned threads = 3;
    std::string out = "keep-me";
    ArgParser parser("prog", "test");
    parser.value("--threads", &threads, "N", "t");
    parser.value("--out", &out, "PATH", "o");
    EXPECT_EQ(parse(parser, {}), ArgParser::Outcome::Ok);
    EXPECT_EQ(threads, 3u);
    EXPECT_EQ(out, "keep-me");
}

TEST(ArgParse, OptionalUint64DistinguishesAbsent)
{
    std::optional<uint64_t> deadline;
    ArgParser parser("prog", "test");
    parser.value("--deadline-ms", &deadline, "N", "d");
    EXPECT_EQ(parse(parser, {}), ArgParser::Outcome::Ok);
    EXPECT_FALSE(deadline.has_value());
    EXPECT_EQ(parse(parser, {"--deadline-ms", "250"}),
              ArgParser::Outcome::Ok);
    ASSERT_TRUE(deadline.has_value());
    EXPECT_EQ(*deadline, 250u);
}

TEST(ArgParse, OptionalValueGrammar)
{
    // "--json" alone sets the flag; "--json=path" also overrides the
    // path; "--json path" must NOT consume the next token (historical
    // lemons-bench grammar).
    bool json = false;
    std::string jsonPath = "default.json";
    std::vector<std::string> rest;
    ArgParser parser("prog", "test");
    parser.optionalValue("--json", &json, &jsonPath, "PATH", "j");
    parser.positionals("<operand>...", &rest, "operands");

    EXPECT_EQ(parse(parser, {"--json"}), ArgParser::Outcome::Ok);
    EXPECT_TRUE(json);
    EXPECT_EQ(jsonPath, "default.json");

    json = false;
    EXPECT_EQ(parse(parser, {"--json=custom.json"}),
              ArgParser::Outcome::Ok);
    EXPECT_TRUE(json);
    EXPECT_EQ(jsonPath, "custom.json");

    json = false;
    jsonPath = "default.json";
    EXPECT_EQ(parse(parser, {"--json", "notapath"}),
              ArgParser::Outcome::Ok);
    EXPECT_TRUE(json);
    EXPECT_EQ(jsonPath, "default.json");
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0], "notapath");
}

TEST(ArgParse, PositionalsCollectedInOrder)
{
    std::vector<std::string> files;
    bool verify = false;
    ArgParser parser("prog", "test");
    parser.flag("--verify", &verify, "v");
    parser.positionals("<spec-file>...", &files, "files");
    EXPECT_EQ(parse(parser, {"a.lemons", "--verify", "b.lemons"}),
              ArgParser::Outcome::Ok);
    EXPECT_TRUE(verify);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0], "a.lemons");
    EXPECT_EQ(files[1], "b.lemons");
}

TEST(ArgParse, UnknownOptionIsError)
{
    bool flag = false;
    ArgParser parser("prog", "test");
    parser.flag("--known", &flag, "k");
    EXPECT_EQ(parse(parser, {"--bogus"}), ArgParser::Outcome::Error);
    EXPECT_NE(parser.error().find("--bogus"), std::string::npos);
    EXPECT_FALSE(flag);
}

TEST(ArgParse, FlagRejectsInlineValue)
{
    bool flag = false;
    ArgParser parser("prog", "test");
    parser.flag("--werror", &flag, "w");
    EXPECT_EQ(parse(parser, {"--werror=yes"}),
              ArgParser::Outcome::Error);
    EXPECT_FALSE(flag);
}

TEST(ArgParse, MissingValueIsError)
{
    unsigned threads = 1;
    ArgParser parser("prog", "test");
    parser.value("--threads", &threads, "N", "t");
    EXPECT_EQ(parse(parser, {"--threads"}), ArgParser::Outcome::Error);
    EXPECT_NE(parser.error().find("--threads"), std::string::npos);
    EXPECT_EQ(threads, 1u);
}

TEST(ArgParse, MalformedNumbersAreErrors)
{
    // Full-token validation: "8x" must be rejected, not parsed as 8.
    unsigned threads = 1;
    uint64_t seed = 7;
    double scale = 1.0;
    ArgParser parser("prog", "test");
    parser.value("--threads", &threads, "N", "t");
    parser.value("--seed", &seed, "N", "s");
    parser.value("--scale", &scale, "F", "f");

    EXPECT_EQ(parse(parser, {"--threads", "8x"}),
              ArgParser::Outcome::Error);
    EXPECT_EQ(threads, 1u);
    // strtoull would wrap a whitespace-led "-1" to 2^64 - 1.
    for (const char *bad : {"", " -1", "\t-5"}) {
        EXPECT_EQ(parse(parser, {"--seed", bad}), ArgParser::Outcome::Error)
            << '"' << bad << '"';
        EXPECT_EQ(seed, 7u);
    }
    EXPECT_EQ(parse(parser, {"--scale", "fast"}),
              ArgParser::Outcome::Error);
    EXPECT_DOUBLE_EQ(scale, 1.0);
}

TEST(ArgParse, UndeclaredPositionalIsError)
{
    bool flag = false;
    ArgParser parser("prog", "test");
    parser.flag("--werror", &flag, "w");
    EXPECT_EQ(parse(parser, {"stray.lemons"}),
              ArgParser::Outcome::Error);
}

TEST(ArgParse, HelpOutcomeAndGeneratedText)
{
    bool flag = false;
    unsigned threads = 1;
    ArgParser parser("prog", "does things");
    parser.flag("--werror", &flag, "treat warnings as errors");
    parser.value("--threads", &threads, "N", "worker threads");
    parser.epilog("examples:\n  prog --werror");

    EXPECT_EQ(parse(parser, {"--help"}), ArgParser::Outcome::Help);
    EXPECT_EQ(parse(parser, {"-h"}), ArgParser::Outcome::Help);

    const std::string help = parser.helpText();
    EXPECT_NE(help.find("usage: prog"), std::string::npos);
    EXPECT_NE(help.find("--werror"), std::string::npos);
    EXPECT_NE(help.find("--threads N"), std::string::npos);
    EXPECT_NE(help.find("treat warnings as errors"), std::string::npos);
    EXPECT_NE(help.find("examples:"), std::string::npos);
}

} // namespace
} // namespace lemons
