/**
 * @file
 * Tests for bench::ArgParser, in particular the duplicate-flag
 * rejection: `--seed=1 --seed=2` used to resolve silently as
 * last-one-wins, which corrupts sweeps driven by generated command
 * lines. Duplicates of built-ins, custom value flags and custom
 * switches must all be fatal; `-v` stays repeatable. Numeric values
 * must be wholly a number: `--seed=abc` used to run as seed 0.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/common.h"

namespace protean {
namespace bench {
namespace {

/** Build a mutable argv from string literals (argv[0] included). */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args)
        : strings_(std::move(args))
    {
        strings_.insert(strings_.begin(), "bench_args_test");
        for (std::string &s : strings_)
            ptrs_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> ptrs_;
};

TEST(BenchArgsTest, ParsesBuiltinsAndCustomFlags)
{
    uint64_t iters = 7;
    double rate = 0.5;
    bool quick = false;
    ArgParser parser;
    parser.addFlag("iters", &iters, "iterations");
    parser.addFlag("rate", &rate, "a rate");
    parser.addSwitch("quick", &quick, "fast mode");

    Argv a({"--seed=123", "--parallel=2", "--iters=9",
            "--rate=0.25", "--quick"});
    ObsConfig cfg = parser.parse(a.argc(), a.argv());
    EXPECT_EQ(cfg.seed, 123u);
    EXPECT_EQ(cfg.parallel, 2u);
    EXPECT_EQ(iters, 9u);
    EXPECT_DOUBLE_EQ(rate, 0.25);
    EXPECT_TRUE(quick);
}

TEST(BenchArgsTest, DuplicateBuiltinFlagIsFatal)
{
    ArgParser parser;
    Argv a({"--seed=1", "--seed=2"});
    EXPECT_DEATH(parser.parse(a.argc(), a.argv()),
                 "--seed given more than once");
}

TEST(BenchArgsTest, DuplicateCustomValueFlagIsFatal)
{
    uint64_t iters = 0;
    ArgParser parser;
    parser.addFlag("iters", &iters, "iterations");
    Argv a({"--iters=1", "--iters=2"});
    EXPECT_DEATH(parser.parse(a.argc(), a.argv()),
                 "--iters given more than once");
}

TEST(BenchArgsTest, DuplicateCustomSwitchIsFatal)
{
    bool quick = false;
    ArgParser parser;
    parser.addSwitch("quick", &quick, "fast mode");
    Argv a({"--quick", "--quick"});
    EXPECT_DEATH(parser.parse(a.argc(), a.argv()),
                 "--quick given more than once");
}

TEST(BenchArgsTest, RepeatedVerbositySwitchIsAllowed)
{
    ArgParser parser;
    Argv a({"-v", "-v", "--seed=5"});
    ObsConfig cfg = parser.parse(a.argc(), a.argv());
    EXPECT_EQ(cfg.seed, 5u);
    setLogLevel(LogLevel::Warn); // undo -v for later tests
}

TEST(BenchArgsTest, DistinctFlagsDoNotCollide)
{
    // One flag's name being a prefix of another must not trip the
    // duplicate check or misroute values.
    uint64_t ms = 0, mslong = 0;
    ArgParser parser;
    parser.addFlag("ms", &ms, "short");
    parser.addFlag("ms-long", &mslong, "long");
    Argv a({"--ms=3", "--ms-long=4"});
    parser.parse(a.argc(), a.argv());
    EXPECT_EQ(ms, 3u);
    EXPECT_EQ(mslong, 4u);
}

TEST(BenchArgsTest, NonNumericBuiltinIsFatalWithFlagList)
{
    for (const char *arg : {"--seed=abc", "--seed=", "--seed=12x",
                            "--seed=-1", "--parallel=two"}) {
        ArgParser parser;
        Argv a({arg});
        EXPECT_DEATH(parser.parse(a.argc(), a.argv()),
                     "wants an unsigned integer.*supported flags:")
            << arg;
    }
}

TEST(BenchArgsTest, NonNumericCustomUnsignedIsFatal)
{
    for (const char *arg :
         {"--servers=4x", "--servers=", "--servers= 4"}) {
        uint64_t servers = 0;
        ArgParser parser;
        parser.addFlag("servers", &servers, "fleet size");
        Argv a({arg});
        EXPECT_DEATH(parser.parse(a.argc(), a.argv()),
                     "--servers wants an unsigned integer.*"
                     "--servers=<n>")
            << arg;
    }
}

TEST(BenchArgsTest, NonNumericCustomDoubleIsFatal)
{
    for (const char *arg : {"--ms=", "--ms=fast", "--ms=1.5ms",
                            "--ms=nan", "--ms= 2"}) {
        double ms = 0.0;
        ArgParser parser;
        parser.addFlag("ms", &ms, "run length");
        Argv a({arg});
        EXPECT_DEATH(parser.parse(a.argc(), a.argv()),
                     "--ms wants a number.*--ms=<x>")
            << arg;
    }
}

TEST(BenchArgsTest, NumericValuesAcceptHexSignAndExponent)
{
    double lo = 0.0, hi = 0.0;
    ArgParser parser;
    parser.addFlag("lo", &lo, "low");
    parser.addFlag("hi", &hi, "high");
    Argv a({"--seed=0x10", "--parallel=4", "--lo=-0.5", "--hi=2e3"});
    ObsConfig cfg = parser.parse(a.argc(), a.argv());
    EXPECT_EQ(cfg.seed, 16u);
    EXPECT_EQ(cfg.parallel, 4u);
    EXPECT_DOUBLE_EQ(lo, -0.5);
    EXPECT_DOUBLE_EQ(hi, 2000.0);
}

} // namespace
} // namespace bench
} // namespace protean
