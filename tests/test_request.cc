/**
 * @file
 * Tests for ExperimentRequest / ExperimentResult: the canonical JSON
 * form must round-trip exactly (it is also the queue's dedupe key and
 * the casimd wire format), unknown fields and invalid combinations must
 * produce the requirePolicyFactory-style diagnostics, and result rows
 * must reconstruct every number bit for bit.
 */

#include <string>

#include <gtest/gtest.h>

#include "mem/repl/factory.hh"
#include "sim/request.hh"

namespace casim {
namespace {

/** A request exercising every non-default field. */
ExperimentRequest
sampleRequest()
{
    ExperimentRequest request;
    request.kind = "replay";
    request.workload = "canneal";
    request.policy = "srrip";
    request.llcBytes = 8ULL << 20;
    request.labeler = "addr-pred";
    request.evaluate = true;
    request.prefetch = true;
    request.prefetchDegree = 4;
    request.shards = 2;
    request.config.workload.threads = 4;
    request.config.workload.scale = 0.123;
    request.config.hierarchy.numCores = 4;
    request.config.oracleWindowFactor = 2.5;
    request.config.nearWindowFactor = 1.0;
    request.config.protectionRounds = 64;
    request.config.postShareRounds = 16;
    request.config.predictor.indexBits = 12;
    return request;
}

TEST(Request, JsonRoundTripIsExact)
{
    const ExperimentRequest request = sampleRequest();
    const std::string wire = request.toJson();

    ExperimentRequest parsed;
    std::string error;
    ASSERT_TRUE(ExperimentRequest::fromJsonText(wire, parsed, &error))
        << error;
    EXPECT_EQ(parsed.toJson(), wire);
    EXPECT_EQ(parsed.workload, "canneal");
    EXPECT_EQ(parsed.policy, "srrip");
    EXPECT_EQ(parsed.llcBytes, 8ULL << 20);
    EXPECT_EQ(parsed.labeler, "addr-pred");
    EXPECT_TRUE(parsed.evaluate);
    EXPECT_EQ(parsed.prefetchDegree, 4u);
    EXPECT_EQ(parsed.config.workload.threads, 4u);
    EXPECT_DOUBLE_EQ(parsed.config.workload.scale, 0.123);
    EXPECT_DOUBLE_EQ(parsed.config.oracleWindowFactor, 2.5);
    EXPECT_EQ(parsed.config.protectionRounds, 64u);
    EXPECT_EQ(parsed.config.predictor.indexBits, 12u);
    EXPECT_TRUE(parsed.validate().empty()) << parsed.validate();
}

TEST(Request, CaptureDirNeverOnTheWire)
{
    ExperimentRequest request = sampleRequest();
    request.config.captureDir = "/tmp/secret-cache";
    const std::string wire = request.toJson();
    EXPECT_EQ(wire.find("secret-cache"), std::string::npos);
    EXPECT_EQ(wire.find("capture_dir"), std::string::npos);

    ExperimentRequest parsed;
    ASSERT_TRUE(
        ExperimentRequest::fromJsonText(wire, parsed, nullptr));
    EXPECT_TRUE(parsed.config.captureDir.empty());
}

TEST(Request, DefaultsRoundTripAndDedupeKeyIsStable)
{
    ExperimentRequest request;
    request.workload = "ferret";
    const std::string wire = request.toJson();
    ExperimentRequest parsed;
    ASSERT_TRUE(
        ExperimentRequest::fromJsonText(wire, parsed, nullptr));
    // Identical cells must share one canonical form (the dedupe key).
    EXPECT_EQ(parsed.toJson(), wire);
    EXPECT_EQ(parsed.toJson(), parsed.toJson());
}

TEST(Request, UnknownTopLevelFieldNamesTheKnownOnes)
{
    ExperimentRequest parsed;
    std::string error;
    EXPECT_FALSE(ExperimentRequest::fromJsonText(
        "{\"workload\": \"canneal\", \"polcy\": \"lru\"}", parsed,
        &error));
    EXPECT_NE(error.find("unknown request field 'polcy'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("policy"), std::string::npos) << error;
}

TEST(Request, UnknownConfigFieldAndWrongTypesAreRejected)
{
    ExperimentRequest parsed;
    std::string error;
    EXPECT_FALSE(ExperimentRequest::fromJsonText(
        "{\"workload\": \"canneal\", \"config\": {\"treads\": 4}}",
        parsed, &error));
    EXPECT_NE(error.find("unknown config field 'treads'"),
              std::string::npos)
        << error;

    EXPECT_FALSE(ExperimentRequest::fromJsonText(
        "{\"workload\": 7}", parsed, &error));
    EXPECT_FALSE(
        ExperimentRequest::fromJsonText("[1, 2]", parsed, &error));
    EXPECT_FALSE(
        ExperimentRequest::fromJsonText("{nope", parsed, &error));
}

TEST(Request, ValidateNamesFieldAndKnownValues)
{
    ExperimentRequest request;
    request.workload = "canneal";

    request.kind = "repla";
    EXPECT_NE(request.validate().find("unknown request kind 'repla'"),
              std::string::npos);
    request.kind = "replay";

    request.workload = "cannea1";
    EXPECT_NE(request.validate().find("unknown workload 'cannea1'"),
              std::string::npos);
    EXPECT_NE(request.validate().find("canneal"), std::string::npos);
    request.workload = "canneal";

    request.policy = "lru2";
    EXPECT_NE(request.validate().find("unknown policy 'lru2'"),
              std::string::npos);
    request.policy = "lru";

    request.labeler = "oracl";
    EXPECT_NE(request.validate().find("unknown labeler 'oracl'"),
              std::string::npos);
    request.labeler = "";

    EXPECT_TRUE(request.validate().empty()) << request.validate();
}

TEST(Request, UnregisteredPoliciesAreUnknown)
{
    // Every registered policy validates; the deleted random/lip/bip and
    // the sharing-aware wrapper, which a labeler composes rather than
    // a policy name, are unknown_policy, not a later fatal error.
    ExperimentRequest request;
    request.workload = "canneal";
    for (const std::string &name : builtinPolicyNames()) {
        request.policy = name;
        EXPECT_TRUE(request.validate().empty()) << request.validate();
    }
    for (const std::string name :
         {"sharing-aware", "random", "lip", "bip"}) {
        request.policy = name;
        std::string code;
        const std::string why = request.validate(&code);
        EXPECT_EQ(code, "unknown_policy") << name;
        EXPECT_NE(why.find("unknown policy '" + name + "' (known: opt, "),
                  std::string::npos)
            << why;
    }
}

TEST(Request, ValidateRejectsInvalidCombinations)
{
    ExperimentRequest request;
    request.workload = "canneal";

    request.kind = "capture";
    request.labeler = "oracle";
    EXPECT_NE(request.validate().find("does not take a labeler"),
              std::string::npos);
    request.labeler = "";
    request.kind = "replay";

    request.evaluate = true;
    request.labeler = "oracle";
    EXPECT_NE(request.validate().find("evaluate needs a predictor"),
              std::string::npos);
    request.evaluate = false;
    request.labeler = "";

    request.prefetch = true;
    request.policy = "opt";
    EXPECT_NE(request.validate().find("incompatible with policy 'opt'"),
              std::string::npos);
    request.prefetch = false;
    request.policy = "lru";

    request.traceProps = true;
    EXPECT_NE(request.validate().find("only valid with kind 'capture'"),
              std::string::npos);
    request.traceProps = false;

    request.shards = 3;
    EXPECT_NE(request.validate().find("power of two"),
              std::string::npos);
    request.shards = 0;

    request.config.workload.threads = 1;
    EXPECT_NE(request.validate().find("at least 2"), std::string::npos);
}

TEST(Request, RequireValidIsFatalWithTheValidateMessage)
{
    ExperimentRequest request;
    request.workload = "canneal";
    request.policy = "not-a-policy";
    EXPECT_DEATH(request.requireValid(),
                 "invalid experiment request: unknown policy");
}

TEST(Request, ResultRowsRoundTripBitForBit)
{
    ExperimentResult result;
    result.streamRefs = 123456789012345ULL;
    result.misses = 987654321ULL;
    result.demandAccesses = 42;
    result.footprintBlocks = 7;
    result.hierarchy.llcAccesses = 11;
    result.hierarchy.llcMisses = 5;
    result.hierarchy.sharing.sharedHitFraction = 1.0 / 3.0;
    result.traceFootprintBlocks = 9;
    result.traceSharedFootprintBlocks = 3;
    result.writeFraction = 0.1; // not exactly representable
    result.sharing.sharedHitFraction = 2.0 / 7.0;
    result.mistakeRate = 1e-17;
    result.sharedVictimRate = 0.25;
    result.accuracy = 0.30000000000000004;
    result.precision = 1.0 / 49.0;
    result.recall = 0.9999999999999999;
    result.prefetchAccuracy = 3.141592653589793;

    ExperimentResult back;
    std::string error;
    ASSERT_TRUE(
        ExperimentResult::fromRows(result.toRows(), back, &error))
        << error;
    EXPECT_EQ(back.streamRefs, result.streamRefs);
    EXPECT_EQ(back.misses, result.misses);
    EXPECT_EQ(back.hierarchy.llcAccesses, result.hierarchy.llcAccesses);
    // Bit-exact double reconstruction: %.17g through strtod.
    EXPECT_EQ(back.writeFraction, result.writeFraction);
    EXPECT_EQ(back.sharing.sharedHitFraction,
              result.sharing.sharedHitFraction);
    EXPECT_EQ(back.hierarchy.sharing.sharedHitFraction,
              result.hierarchy.sharing.sharedHitFraction);
    EXPECT_EQ(back.mistakeRate, result.mistakeRate);
    EXPECT_EQ(back.accuracy, result.accuracy);
    EXPECT_EQ(back.precision, result.precision);
    EXPECT_EQ(back.recall, result.recall);
    EXPECT_EQ(back.prefetchAccuracy, result.prefetchAccuracy);
    // And the rows themselves are stable.
    EXPECT_EQ(back.toRows(), result.toRows());
}

TEST(Request, ResultFromRowsRejectsMalformedRows)
{
    ExperimentResult out;
    std::string error;
    EXPECT_FALSE(ExperimentResult::fromRows(
        {{"not_a_field", "1"}}, out, &error));
    EXPECT_NE(error.find("not_a_field"), std::string::npos);
    EXPECT_FALSE(
        ExperimentResult::fromRows({{"misses"}}, out, &error));
}

} // namespace
} // namespace casim
