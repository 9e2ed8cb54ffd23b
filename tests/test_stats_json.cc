/**
 * @file
 * Tests for the machine-readable results layer: StatGroup JSON
 * emission, JSON string/number helpers, the ResultSink document, the
 * JSON parser's nesting bound, and the policy registry that resolves
 * and describes every policy by name.
 *
 * The JSON assertions read the emitted documents back with the
 * library parser (common/json).
 */

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "mem/repl/factory.hh"
#include "mem/repl/opt.hh"
#include "sim/config.hh"
#include "sim/result_sink.hh"
#include "trace/next_use.hh"
#include "trace/trace.hh"

namespace casim {
namespace {

/** Parse `text` with the library parser; a parse error fails the test. */
json::Value
parseJson(const std::string &text)
{
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::parse(text, doc, &error)) << error;
    return doc;
}

/**
 * The value at `path` (one object key per step) below `value`; a
 * missing key fails the test and yields null.
 */
const json::Value &
at(const json::Value &value, std::initializer_list<const char *> path)
{
    static const json::Value null_value;
    const json::Value *node = &value;
    for (const char *key : path) {
        node = node->find(key);
        if (node == nullptr) {
            ADD_FAILURE() << "missing key '" << key << "'";
            return null_value;
        }
    }
    return *node;
}

// ---------------------------------------------------------------------

TEST(StatsJson, StringEscaping)
{
    std::ostringstream os;
    stats::printJsonString(os, "a\"b\\c\nd\te\x01" "f");
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

TEST(StatsJson, NumberFormatting)
{
    const auto render = [](double value) {
        std::ostringstream os;
        stats::printJsonNumber(os, value);
        return os.str();
    };
    EXPECT_EQ(render(0.0), "0");
    EXPECT_EQ(render(42.0), "42");
    EXPECT_EQ(render(0.25), "0.25");
    // Non-finite values have no JSON representation; they become null.
    EXPECT_EQ(render(std::nan("")), "null");
    EXPECT_EQ(render(INFINITY), "null");
    // Full round-trip precision for awkward doubles.
    const double third = 1.0 / 3.0;
    EXPECT_EQ(std::stod(render(third)), third);
}

TEST(StatsJson, GroupRoundTripsEveryStatKind)
{
    stats::StatGroup group("g");
    auto &ctr = group.addCounter("events", "event count");
    auto &vec = group.addVector("kinds", "per-kind", {"read", "write"});
    auto &dist = group.addDistribution("lat", "latency");
    auto &hist = group.addHistogram("sizes", "sizes", {1, 4, 16});
    group.addFormula("rate", "events per latency sample",
                     [&] { return ctr.value() / 2.0; });

    ctr += 7;
    vec.add(0, 3);
    vec.add(1, 4);
    dist.sample(1.0);
    dist.sample(3.0);
    hist.sample(2);
    hist.sample(100);

    std::ostringstream os;
    group.dumpJson(os);
    const json::Value doc = parseJson(os.str());

    EXPECT_EQ(at(doc, {"g.events", "kind"}).str(), "counter");
    EXPECT_EQ(at(doc, {"g.events", "value"}).number(), 7.0);

    const json::Value &kinds = at(doc, {"g.kinds"});
    EXPECT_EQ(at(kinds, {"kind"}).str(), "vector");
    EXPECT_EQ(at(kinds, {"values", "read"}).number(), 3.0);
    EXPECT_EQ(at(kinds, {"values", "write"}).number(), 4.0);
    EXPECT_EQ(at(kinds, {"total"}).number(), 7.0);

    const json::Value &lat = at(doc, {"g.lat"});
    EXPECT_EQ(at(lat, {"kind"}).str(), "distribution");
    EXPECT_EQ(at(lat, {"count"}).number(), 2.0);
    EXPECT_EQ(at(lat, {"mean"}).number(), 2.0);
    EXPECT_EQ(at(lat, {"min"}).number(), 1.0);
    EXPECT_EQ(at(lat, {"max"}).number(), 3.0);

    const json::Value &sizes = at(doc, {"g.sizes"});
    EXPECT_EQ(at(sizes, {"kind"}).str(), "histogram");
    // Bucket labels match the text listing: std::to_string(bound).
    EXPECT_EQ(at(sizes, {"buckets", "<=4.000000"}).number(), 1.0);
    EXPECT_EQ(at(sizes, {"buckets", "overflow"}).number(), 1.0);
    EXPECT_EQ(at(sizes, {"total"}).number(), 2.0);

    EXPECT_EQ(at(doc, {"g.rate", "kind"}).str(), "formula");
    EXPECT_EQ(at(doc, {"g.rate", "value"}).number(), 3.5);
}

TEST(StatsJson, EmptyDistributionEmitsNullMoments)
{
    stats::StatGroup group("e");
    group.addDistribution("d", "empty");
    std::ostringstream os;
    group.dumpJson(os);
    const json::Value doc = parseJson(os.str());
    EXPECT_EQ(at(doc, {"e.d", "count"}).number(), 0.0);
}

TEST(ResultSinkJson, DocumentReproducesTableCellsVerbatim)
{
    StudyConfig config;
    TablePrinter table("Demo table", {"app", "value"});
    table.addRow({"canneal", "0.123"});
    table.addRow("ocean", {0.456789}, 3);
    table.addSeparator();
    table.addRow({"mean", "0.290"});

    stats::StatGroup group("demo");
    auto &ctr = group.addCounter("runs", "runs");
    ++ctr;

    ResultSink sink("test_bench", config);
    sink.addTable(table);
    sink.addNote("a note with a\nnewline");
    sink.addGroup(group);

    std::ostringstream os;
    sink.writeJson(os);
    const json::Value doc = parseJson(os.str());

    EXPECT_EQ(at(doc, {"schema"}).str(), kStatsSchemaId);
    EXPECT_EQ(at(doc, {"bench"}).str(), "test_bench");
    EXPECT_EQ(at(doc, {"config", "threads"}).number(),
              static_cast<double>(config.workload.threads));

    const json::Array &tables = at(doc, {"tables"}).array();
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(at(tables[0], {"title"}).str(), "Demo table");
    const json::Array &rows = at(tables[0], {"rows"}).array();
    ASSERT_EQ(rows.size(), 3u);
    // Cells are the exact strings the text table renders — including
    // the fixed-precision formatting applied by addRow.
    EXPECT_EQ(rows[0].array()[1].str(), "0.123");
    EXPECT_EQ(rows[1].array()[1].str(), "0.457");
    EXPECT_EQ(rows[2].array()[0].str(), "mean");
    const json::Array &separators = at(tables[0], {"separators"}).array();
    ASSERT_EQ(separators.size(), 1u);
    EXPECT_EQ(separators[0].number(), 2.0);

    EXPECT_EQ(at(doc, {"notes"}).array()[0].str(), "a note with a\nnewline");
    EXPECT_EQ(at(doc, {"stats", "demo", "demo.runs", "value"}).number(),
              1.0);
}

TEST(ResultSinkJson, AddTableDoesNotPerturbTextOutput)
{
    StudyConfig config;
    TablePrinter table("T", {"a", "b"});
    table.addRow("x", {1.23456}, 2);

    std::ostringstream before;
    table.print(before);

    ResultSink sink("bench", config);
    sink.addTable(table);
    std::ostringstream json;
    sink.writeJson(json);

    std::ostringstream after;
    table.print(after);
    EXPECT_EQ(before.str(), after.str());
}

TEST(ResultSinkJson, DuplicateGroupPrefixesAreDisambiguated)
{
    StudyConfig config;
    stats::StatGroup a("dup"), b("dup");
    ++a.addCounter("n", "n");
    b.addCounter("n", "n") += 2;

    ResultSink sink("bench", config);
    sink.addGroup(a);
    sink.addGroup(b);
    std::ostringstream os;
    sink.writeJson(os);
    const json::Value doc = parseJson(os.str());
    EXPECT_EQ(at(doc, {"stats", "dup", "dup.n", "value"}).number(), 1.0);
    EXPECT_EQ(at(doc, {"stats", "dup#2", "dup.n", "value"}).number(),
              2.0);
}

// ---------------------------------------------------------------------
// Parser bounds.

/** `depth` nested arrays around a number: [[...[1]...]]. */
std::string
nestedArrays(unsigned depth)
{
    return std::string(depth, '[') + "1" + std::string(depth, ']');
}

TEST(JsonParse, AcceptsNestingUpToTheLimit)
{
    const json::Value doc = parseJson(nestedArrays(json::kMaxNestingDepth));
    const json::Value *inner = &doc;
    for (unsigned level = 0; level < json::kMaxNestingDepth; ++level) {
        ASSERT_TRUE(inner->isArray()) << "level " << level;
        ASSERT_EQ(inner->array().size(), 1u) << "level " << level;
        inner = &inner->array()[0];
    }
    EXPECT_EQ(inner->number(), 1.0);
}

TEST(JsonParse, RejectsNestingBeyondTheLimit)
{
    json::Value doc;
    std::string error;
    EXPECT_FALSE(json::parse(nestedArrays(json::kMaxNestingDepth + 1),
                             doc, &error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
        << error;

    // Objects count toward the same bound as arrays.
    std::string objects;
    for (unsigned level = 0; level <= json::kMaxNestingDepth; ++level)
        objects += "{\"k\":";
    objects += "1" + std::string(json::kMaxNestingDepth + 1, '}');
    EXPECT_FALSE(json::parse(objects, doc, &error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
        << error;
}

TEST(JsonParse, HostileBracketRunFailsWithoutRecursingPastTheLimit)
{
    // 100,000 unclosed brackets would overflow the stack of an
    // unbounded recursive descent (the ASan job runs this too).
    json::Value doc;
    std::string error;
    EXPECT_FALSE(json::parse(std::string(100000, '['), doc, &error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
        << error;
}

// ---------------------------------------------------------------------
// The policy registry: one table resolves and describes every policy.

TEST(PolicyFactory, UnknownNameIsEmptyOptional)
{
    // The deleted policies and the sharing-aware wrapper, which is
    // composed from a labeler rather than named, are not registered.
    for (const std::string name :
         {"no-such-policy", "random", "lip", "bip", "sharing-aware"})
        EXPECT_FALSE(policyDesc(name).has_value()) << name;
}

TEST(PolicyFactory, BuiltinsAreConstructible)
{
    for (const auto &name : builtinPolicyNames()) {
        const auto policy = requirePolicyFactory(name)(64, 8);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->name(), name);
        const auto desc = policyDesc(name);
        ASSERT_TRUE(desc.has_value()) << name;
        EXPECT_EQ(desc->name, name);
        EXPECT_FALSE(desc->needsNextUse) << name;
    }
}

TEST(PolicyFactory, OptResolvesFromTheSameTable)
{
    const auto desc = policyDesc("opt");
    ASSERT_TRUE(desc.has_value());
    EXPECT_TRUE(desc->needsNextUse);
    const auto builtins = builtinPolicyNames();
    EXPECT_EQ(std::find(builtins.begin(), builtins.end(), "opt"),
              builtins.end());

    Trace trace("opt", 1);
    trace.append(0x000, 0, 0, false);
    trace.append(0x000, 0, 0, false);
    const NextUseIndex index(trace);
    const auto policy = requirePolicyFactory("opt", &index)(1, 2);
    EXPECT_EQ(policy->name(), "opt");
    ReplContext ctx;
    policy->onFill(0, 0, ctx);
    EXPECT_EQ(dynamic_cast<const OptPolicy &>(*policy).nextUse(0, 0), 1u);
}

TEST(PolicyFactoryDeathTest, OptWithoutAnIndexIsFatal)
{
    EXPECT_DEATH(requirePolicyFactory("opt"), "needs a next-use index");
    EXPECT_DEATH(requirePolicyFactory("random"),
                 "unknown replacement policy 'random'");
}

} // namespace
} // namespace casim
