/**
 * @file
 * Unit tests for the util layer: Rng, Table, StatsAccumulator,
 * QuantileSampler, unit conversions.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats_accumulator.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace wss {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a() == b();
    EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsNotDegenerate)
{
    Rng rng(0);
    std::uint64_t all_or = 0;
    for (int i = 0; i < 16; ++i)
        all_or |= rng();
    EXPECT_NE(all_or, 0u);
}

TEST(Rng, NextBelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng rng(9);
    bool seen[7] = {};
    for (int i = 0; i < 500; ++i)
        seen[rng.nextBelow(7)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, NextInRangeInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliRateIsCalibrated)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(5);
    Rng b = a.split();
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a() == b();
    EXPECT_LT(equal, 3);
}

TEST(Rng, WorksWithStdShuffle)
{
    Rng rng(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::shuffle(v.begin(), v.end(), rng);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Table, RendersAlignedGrid)
{
    Table t("demo", {"a", "longer"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("| a"), std::string::npos);
    EXPECT_NE(out.find("| longer"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 1u);
}

TEST(Table, RejectsMismatchedRow)
{
    Table t("demo", {"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeaders)
{
    EXPECT_THROW(Table("x", {}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(2.0, 0), "2");
    EXPECT_EQ(Table::num(12345LL), "12345");
}

TEST(Table, CsvQuotesSpecialCharacters)
{
    Table t("demo", {"name", "value"});
    t.addRow({"a,b", "say \"hi\""});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
    EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvRoundTripsTopologyLabels)
{
    // Resilience artifacts carry "clos(3,64)"-style labels: the
    // embedded comma must force quoting while plain fields stay
    // unquoted, so the row still splits into the right columns.
    Table t("demo", {"topology", "survival"});
    t.addRow({"clos(3,64)", "0.9981"});
    t.addRow({"mesh-8x8", "1.0000"});
    std::ostringstream os;
    t.printCsv(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"clos(3,64)\",0.9981"), std::string::npos);
    EXPECT_NE(out.find("mesh-8x8,1.0000"), std::string::npos);
    EXPECT_EQ(out.find("\"mesh-8x8\""), std::string::npos);
}

TEST(StatsAccumulator, MeanMinMax)
{
    StatsAccumulator acc;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        acc.add(v);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 4.0);
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
}

TEST(StatsAccumulator, EmptyIsSafe)
{
    StatsAccumulator acc;
    EXPECT_TRUE(acc.empty());
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(QuantileSampler, ExactQuantiles)
{
    QuantileSampler q;
    for (int i = 1; i <= 100; ++i)
        q.add(i);
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
    EXPECT_NEAR(q.quantile(0.5), 50.0, 1.0);
    EXPECT_NEAR(q.quantile(0.99), 99.0, 1.0);
}

// "No samples" must be distinguishable from a measured zero: the
// documented contract is NaN, and callers that serialize pick their
// own sentinel behind an empty() check.
TEST(QuantileSampler, EmptyReturnsNan)
{
    QuantileSampler q;
    EXPECT_TRUE(std::isnan(q.quantile(0.0)));
    EXPECT_TRUE(std::isnan(q.quantile(0.5)));
    EXPECT_TRUE(std::isnan(q.quantile(1.0)));
    // Adding one sample ends the NaN regime.
    q.add(7.0);
    EXPECT_DOUBLE_EQ(q.quantile(0.5), 7.0);
}

TEST(QuantileSampler, AddAfterQuantileStaysExact)
{
    QuantileSampler a;
    a.add(10.0);
    a.add(2.0);
    // quantile() selects on a scratch copy; samples added after a
    // read must still give exact quantiles over every sample.
    EXPECT_DOUBLE_EQ(a.quantile(1.0), 10.0);
    a.add(30.0);
    EXPECT_DOUBLE_EQ(a.quantile(1.0), 30.0);
    EXPECT_DOUBLE_EQ(a.quantile(0.0), 2.0);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(units::tbps(1.6), 1600.0);
    EXPECT_DOUBLE_EQ(units::kilowatts(2.5), 2500.0);
    EXPECT_DOUBLE_EQ(units::toKilowatts(500.0), 0.5);
    EXPECT_DOUBLE_EQ(units::toTbps(51200.0), 51.2);
}

TEST(Units, LinkPowerMatchesHandCalc)
{
    // 51.2 Tbps at 2 pJ/b is the TH-5 I/O budget: ~102.4 W.
    EXPECT_NEAR(units::linkPower(51200.0, 2.0), 102.4, 1e-9);
}

TEST(Logging, WarnOnceFiresExactlyOnceAcrossThreads)
{
    std::atomic<bool> fired{false};
    std::atomic<int> emitted{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 100; ++i)
                if (warnOnce(fired, "warn-once stress (expected once)"))
                    ++emitted;
        });
    for (auto &thread : threads)
        thread.join();
    // Exactly one of the 800 racing calls wins the exchange.
    EXPECT_EQ(emitted.load(), 1);
    EXPECT_TRUE(fired.load());

    // The macro flavour: one message per call site, however often the
    // site executes.
    for (int i = 0; i < 3; ++i)
        WSS_WARN_ONCE("macro warn-once (expected once)");
}

TEST(ParsePositiveInt, AcceptsPlainPositiveDecimals)
{
    EXPECT_EQ(util::parsePositiveInt("1", "--x"), 1);
    EXPECT_EQ(util::parsePositiveInt("64", "--x"), 64);
    EXPECT_EQ(util::parsePositiveInt("4096", "--x", 4096), 4096);
    EXPECT_EQ(util::parsePositiveInt("007", "--x"), 7);
}

TEST(ParsePositiveInt, RejectsEverythingElseLoudly)
{
    // The WSS_JOBS contract, but fatal: an explicit CLI value that
    // does not parse must abort, not silently run with a default.
    EXPECT_DEATH(util::parsePositiveInt("0", "--seed"),
                 "--seed='0' is not a positive integer");
    EXPECT_DEATH(util::parsePositiveInt("-3", "--seed"), "--seed");
    EXPECT_DEATH(util::parsePositiveInt("8x", "--ranks"),
                 "--ranks='8x'");
    EXPECT_DEATH(util::parsePositiveInt("", "--ranks"), "--ranks");
    EXPECT_DEATH(util::parsePositiveInt(" 4", "--x"), "--x");
    EXPECT_DEATH(util::parsePositiveInt("+4", "--x"), "--x");
    EXPECT_DEATH(util::parsePositiveInt("4.5", "--x"), "--x");
    EXPECT_DEATH(util::parsePositiveInt("4097", "--jobs", 4096),
                 "--jobs");
    EXPECT_DEATH(util::parsePositiveInt("99999999999999999999", "--x"),
                 "--x");
}

TEST(ParsePositiveSeconds, AcceptsFiniteDecimalsAboveZero)
{
    EXPECT_EQ(util::parsePositiveSeconds("30", "--x"), 30.0);
    EXPECT_EQ(util::parsePositiveSeconds("0.2", "--x"), 0.2);
    EXPECT_EQ(util::parsePositiveSeconds(".5", "--x"), 0.5);
    EXPECT_EQ(util::parsePositiveSeconds("1e-3", "--x"), 1e-3);
}

TEST(ParsePositiveSeconds, RejectsEverythingElseLoudly)
{
    // std::stod would throw on "abc", read "nan" as a timeout that
    // never fires, and take "1x" as 1: each is fatal here instead.
    EXPECT_DEATH(util::parsePositiveSeconds("abc", "--watchdog"),
                 "--watchdog='abc' is not a positive number of seconds");
    EXPECT_DEATH(util::parsePositiveSeconds("nan", "--watchdog"),
                 "--watchdog='nan'");
    EXPECT_DEATH(util::parsePositiveSeconds("inf", "--watchdog"),
                 "--watchdog='inf'");
    EXPECT_DEATH(util::parsePositiveSeconds("1x", "--watchdog"),
                 "--watchdog='1x'");
    EXPECT_DEATH(util::parsePositiveSeconds("0", "--watchdog"),
                 "--watchdog='0'");
    EXPECT_DEATH(util::parsePositiveSeconds("-1", "--watchdog"),
                 "--watchdog='-1'");
    EXPECT_DEATH(util::parsePositiveSeconds(" 1", "--watchdog"),
                 "--watchdog=' 1'");
    EXPECT_DEATH(util::parsePositiveSeconds("", "--watchdog"),
                 "--watchdog=''");
    EXPECT_DEATH(util::parsePositiveSeconds("0x1p3", "--x"), "--x");
    EXPECT_DEATH(util::parsePositiveSeconds("1e999", "--x"), "--x");
}

TEST(ParseFiniteNumber, AcceptsWholeStringDecimals)
{
    EXPECT_EQ(util::parseFiniteNumber("0.7", "--x"), 0.7);
    EXPECT_EQ(util::parseFiniteNumber("0", "--x"), 0.0);
    EXPECT_EQ(util::parseFiniteNumber("-2", "--x"), -2.0);
    EXPECT_EQ(util::parseFiniteNumber(".5", "--x"), 0.5);
    EXPECT_EQ(util::parseFiniteNumber("1048576", "--x"), 1048576.0);
    EXPECT_EQ(util::parseFiniteNumber("1e-3", "--x"), 1e-3);
    EXPECT_EQ(util::parseFiniteNumber("2E+3", "--x"), 2000.0);
}

TEST(ParseFiniteNumber, RejectsEverythingElseLoudly)
{
    // std::stod took "0.7x" as 0.7, read "nan" as a number and threw
    // an uncaught exception on "" and "1e999": each is fatal here.
    EXPECT_DEATH(util::parseFiniteNumber("0.7x", "--loads"),
                 "--loads='0.7x' is not a finite number");
    EXPECT_DEATH(util::parseFiniteNumber("3 ", "--loads"), "--loads='3 '");
    EXPECT_DEATH(util::parseFiniteNumber(" 3", "--loads"), "--loads=' 3'");
    EXPECT_DEATH(util::parseFiniteNumber("nan", "--densities"),
                 "--densities='nan'");
    EXPECT_DEATH(util::parseFiniteNumber("-inf", "--densities"),
                 "--densities='-inf'");
    EXPECT_DEATH(util::parseFiniteNumber("infinity", "--x"), "--x");
    EXPECT_DEATH(util::parseFiniteNumber("", "--payloads"),
                 "--payloads=''");
    EXPECT_DEATH(util::parseFiniteNumber("-", "--x"), "--x='-'");
    EXPECT_DEATH(util::parseFiniteNumber("+1", "--x"), "--x='\\+1'");
    EXPECT_DEATH(util::parseFiniteNumber("0x10", "--x"), "--x='0x10'");
    EXPECT_DEATH(util::parseFiniteNumber("1e999", "--payloads"),
                 "--payloads='1e999'");
    EXPECT_DEATH(util::parseFiniteNumber("-1e999", "--x"), "--x");
    EXPECT_DEATH(util::parseFiniteNumber("1e-400", "--x"), "--x");
}

TEST(ParseInteger, AcceptsWholeStringIntegers)
{
    EXPECT_EQ(util::parseInteger("12", "--x"), 12);
    EXPECT_EQ(util::parseInteger("0", "--x"), 0);
    EXPECT_EQ(util::parseInteger("-3", "--x"), -3);
    EXPECT_EQ(util::parseInteger("9223372036854775807", "--x"), INT64_MAX);
}

TEST(ParseInteger, RejectsEverythingElseLoudly)
{
    // std::stoll took "2x" as 2 and "1e5" as 1, and threw an uncaught
    // exception past int64: each is fatal here.
    EXPECT_DEATH(util::parseInteger("2x", "--points"),
                 "--points='2x' is not an integer");
    EXPECT_DEATH(util::parseInteger("1e5", "--x"), "--x='1e5'");
    EXPECT_DEATH(util::parseInteger("1.5", "--x"), "--x='1.5'");
    EXPECT_DEATH(util::parseInteger("99999999999999999999", "--x"),
                 "--x='99999999999999999999'");
    EXPECT_DEATH(util::parseInteger("", "--x"), "--x=''");
    EXPECT_DEATH(util::parseInteger("-", "--x"), "--x='-'");
    EXPECT_DEATH(util::parseInteger("+1", "--x"), "--x='\\+1'");
    EXPECT_DEATH(util::parseInteger(" 1", "--x"), "--x=' 1'");
}

} // namespace
} // namespace wss
