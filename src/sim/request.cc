/**
 * @file
 * Implementation of the experiment request/result round-trip.
 */

#include "sim/request.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "mem/repl/factory.hh"
#include "wgen/registry.hh"

namespace casim {

namespace {

const char *const kKinds[] = {"replay", "sharing", "awareness",
                              "capture"};
const char *const kLabelers[] = {"", "oracle", "residency", "addr-pred",
                                 "pc-pred"};

/** The known top-level request fields, for unknown-field errors. */
const char *const kRequestFields[] = {
    "kind",     "workload", "policy",          "llc_bytes",
    "labeler",  "evaluate", "prefetch",        "prefetch_degree",
    "shards",   "trace_props", "config",
};

/** The known config sub-object fields. */
const char *const kConfigFields[] = {
    "threads",           "scale",
    "seed",              "llc_small_bytes",
    "llc_large_bytes",   "llc_ways",
    "window_factor",     "protection_rounds",
    "post_rounds",       "quota",
    "near_factor",       "dueling",
    "pred_index_bits",   "pred_counter_bits",
    "pred_threshold",    "pred_initial",
    "shards",
};

template <std::size_t N>
std::string
joinNames(const char *const (&names)[N])
{
    std::string out;
    for (std::size_t i = 0; i < N; ++i) {
        if (i)
            out += ", ";
        out += names[i][0] == '\0' ? "\"\"" : names[i];
    }
    return out;
}

template <std::size_t N>
bool
contains(const char *const (&names)[N], const std::string &name)
{
    for (const char *known : names)
        if (name == known)
            return true;
    return false;
}

std::string
fmtDouble(double value)
{
    std::ostringstream os;
    stats::printJsonNumber(os, value);
    return os.str();
}

bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return errno == 0 && end == text.c_str() + text.size();
}

bool
parseDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size();
}

bool
setError(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

/** Read one typed field from a JSON object, with clean type errors. */
struct FieldReader
{
    const json::Object &object;
    std::string *error;
    bool ok = true;

    const json::Value *
    get(const char *name)
    {
        const auto it = object.find(name);
        return it == object.end() ? nullptr : &it->second;
    }

    void
    typeError(const char *name, const char *want)
    {
        if (ok)
            setError(error, std::string("request field '") + name +
                                "' must be " + want);
        ok = false;
    }

    void
    str(const char *name, std::string &out)
    {
        const json::Value *v = get(name);
        if (v == nullptr)
            return;
        if (!v->isString())
            return typeError(name, "a string");
        out = v->str();
    }

    void
    boolean(const char *name, bool &out)
    {
        const json::Value *v = get(name);
        if (v == nullptr)
            return;
        if (!v->isBool())
            return typeError(name, "a boolean");
        out = v->boolean();
    }

    template <typename UInt>
    void
    uint(const char *name, UInt &out)
    {
        const json::Value *v = get(name);
        if (v == nullptr)
            return;
        if (!v->isNumber() || v->number() < 0)
            return typeError(name, "a non-negative number");
        out = static_cast<UInt>(v->number());
    }

    void
    real(const char *name, double &out)
    {
        const json::Value *v = get(name);
        if (v == nullptr)
            return;
        if (!v->isNumber())
            return typeError(name, "a number");
        out = v->number();
    }
};

bool
configFromJson(const json::Value &value, StudyConfig &config,
               std::string *error)
{
    if (!value.isObject())
        return setError(error, "request field 'config' must be an "
                               "object");
    for (const auto &[key, member] : value.object()) {
        (void)member;
        if (!contains(kConfigFields, key))
            return setError(error, "unknown config field '" + key +
                                       "' (known: " +
                                       joinNames(kConfigFields) + ")");
    }
    FieldReader reader{value.object(), error};
    reader.uint("threads", config.workload.threads);
    reader.real("scale", config.workload.scale);
    reader.uint("seed", config.workload.seed);
    reader.uint("llc_small_bytes", config.llcSmallBytes);
    reader.uint("llc_large_bytes", config.llcLargeBytes);
    reader.uint("llc_ways", config.llcWays);
    reader.real("window_factor", config.oracleWindowFactor);
    reader.uint("protection_rounds", config.protectionRounds);
    reader.uint("post_rounds", config.postShareRounds);
    reader.real("quota", config.protectionQuota);
    reader.real("near_factor", config.nearWindowFactor);
    reader.boolean("dueling", config.dueling);
    reader.uint("pred_index_bits", config.predictor.indexBits);
    reader.uint("pred_counter_bits", config.predictor.counterBits);
    reader.uint("pred_threshold", config.predictor.threshold);
    reader.uint("pred_initial", config.predictor.initialValue);
    reader.uint("shards", config.shards);
    if (reader.ok)
        config.hierarchy.numCores = config.workload.threads;
    return reader.ok;
}

void
configToJson(std::ostream &os, const StudyConfig &config)
{
    os << "{\"threads\":" << config.workload.threads
       << ",\"scale\":" << fmtDouble(config.workload.scale)
       << ",\"seed\":" << config.workload.seed
       << ",\"llc_small_bytes\":" << config.llcSmallBytes
       << ",\"llc_large_bytes\":" << config.llcLargeBytes
       << ",\"llc_ways\":" << config.llcWays
       << ",\"window_factor\":" << fmtDouble(config.oracleWindowFactor)
       << ",\"protection_rounds\":" << config.protectionRounds
       << ",\"post_rounds\":" << config.postShareRounds
       << ",\"quota\":" << fmtDouble(config.protectionQuota)
       << ",\"near_factor\":" << fmtDouble(config.nearWindowFactor)
       << ",\"dueling\":" << (config.dueling ? "true" : "false")
       << ",\"pred_index_bits\":" << config.predictor.indexBits
       << ",\"pred_counter_bits\":" << config.predictor.counterBits
       << ",\"pred_threshold\":" << config.predictor.threshold
       << ",\"pred_initial\":" << config.predictor.initialValue
       << ",\"shards\":" << config.shards << "}";
}

} // namespace

std::uint64_t
ExperimentRequest::effectiveLlcBytes() const
{
    return llcBytes != 0 ? llcBytes : config.llcSmallBytes;
}

unsigned
ExperimentRequest::effectiveShards() const
{
    return shards != 0 ? shards : config.shards;
}

std::string
ExperimentRequest::toJson() const
{
    std::ostringstream os;
    os << "{\"kind\":";
    stats::printJsonString(os, kind);
    os << ",\"workload\":";
    stats::printJsonString(os, workload);
    os << ",\"policy\":";
    stats::printJsonString(os, policy);
    os << ",\"llc_bytes\":" << llcBytes << ",\"labeler\":";
    stats::printJsonString(os, labeler);
    os << ",\"evaluate\":" << (evaluate ? "true" : "false")
       << ",\"prefetch\":" << (prefetch ? "true" : "false")
       << ",\"prefetch_degree\":" << prefetchDegree
       << ",\"shards\":" << shards
       << ",\"trace_props\":" << (traceProps ? "true" : "false")
       << ",\"config\":";
    configToJson(os, config);
    os << "}";
    return os.str();
}

std::string
checkWorkloadName(const std::string &workload)
{
    bool known = false;
    std::string names;
    for (const auto &info : allWorkloads()) {
        if (!names.empty())
            names += ", ";
        names += info.name;
        known = known || info.name == workload;
    }
    if (known)
        return "";
    return "unknown workload '" + workload + "' (known: " + names + ")";
}

std::string
checkPolicyName(const std::string &policy)
{
    if (policyDesc(policy).has_value())
        return "";
    std::string names = "opt";
    for (const std::string &name : builtinPolicyNames())
        names += ", " + name;
    return "unknown policy '" + policy + "' (known: " + names + ")";
}

std::string
ExperimentRequest::validate() const
{
    return validate(nullptr);
}

std::string
ExperimentRequest::validate(std::string *code) const
{
    // Message first, code second: the message is the v1-compatible
    // diagnostic, the code is the protocol-v2 classification.
    const auto fail = [code](const char *what, std::string message) {
        if (code != nullptr)
            *code = what;
        return message;
    };

    if (!contains(kKinds, kind))
        return fail("unknown_kind", "unknown request kind '" + kind +
                                        "' (known: " +
                                        joinNames(kKinds) + ")");

    if (std::string why = checkWorkloadName(workload); !why.empty())
        return fail("unknown_workload", std::move(why));

    if (std::string why = checkPolicyName(policy); !why.empty())
        return fail("unknown_policy", std::move(why));

    if (!contains(kLabelers, labeler))
        return fail("unknown_labeler",
                    "unknown labeler '" + labeler +
                        "' (known: " + joinNames(kLabelers) + ")");

    if (kind == "awareness" || kind == "capture") {
        if (!labeler.empty())
            return fail("invalid_request",
                        "kind '" + kind + "' does not take a labeler");
        if (evaluate || prefetch)
            return fail("invalid_request",
                        "kind '" + kind +
                            "' does not take evaluate/prefetch");
    }
    if (evaluate && labeler != "addr-pred" && labeler != "pc-pred")
        return fail("invalid_request",
                    "evaluate needs a predictor labeler (addr-pred or "
                    "pc-pred), got '" +
                        labeler + "'");
    if (prefetch && policy == "opt")
        return fail("invalid_request",
                    "prefetch is incompatible with policy 'opt'");
    if (traceProps && kind != "capture")
        return fail("invalid_request",
                    "trace_props is only valid with kind 'capture'");

    const auto powerOf2 = [](std::uint64_t v) {
        return v != 0 && (v & (v - 1)) == 0;
    };
    if (shards != 0 && !powerOf2(shards))
        return fail("invalid_request",
                    "shards must be a power of two, got " +
                        std::to_string(shards));
    if (!powerOf2(config.shards))
        return fail("invalid_request",
                    "config.shards must be a power of two, got " +
                        std::to_string(config.shards));
    if (config.workload.threads < 2)
        return fail(
            "invalid_request",
            "config.threads must be at least 2 for a sharing study");
    if (!(config.workload.scale > 0.0))
        return fail("invalid_request", "config.scale must be positive");
    if (config.llcWays == 0)
        return fail("invalid_request",
                    "config.llc_ways must be nonzero");
    return "";
}

void
ExperimentRequest::requireValid() const
{
    const std::string why = validate();
    if (!why.empty())
        casim_fatal("invalid experiment request: ", why);
}

bool
ExperimentRequest::fromJson(const json::Value &value,
                            ExperimentRequest &out, std::string *error)
{
    if (!value.isObject())
        return setError(error, "request must be a JSON object");
    for (const auto &[key, member] : value.object()) {
        (void)member;
        if (!contains(kRequestFields, key))
            return setError(error, "unknown request field '" + key +
                                       "' (known: " +
                                       joinNames(kRequestFields) + ")");
    }
    ExperimentRequest request;
    FieldReader reader{value.object(), error};
    reader.str("kind", request.kind);
    reader.str("workload", request.workload);
    reader.str("policy", request.policy);
    reader.uint("llc_bytes", request.llcBytes);
    reader.str("labeler", request.labeler);
    reader.boolean("evaluate", request.evaluate);
    reader.boolean("prefetch", request.prefetch);
    reader.uint("prefetch_degree", request.prefetchDegree);
    reader.uint("shards", request.shards);
    reader.boolean("trace_props", request.traceProps);
    if (!reader.ok)
        return false;
    if (const json::Value *config = value.find("config"))
        if (!configFromJson(*config, request.config, error))
            return false;
    out = std::move(request);
    return true;
}

bool
ExperimentRequest::fromJsonText(const std::string &text,
                                ExperimentRequest &out,
                                std::string *error)
{
    json::Value value;
    if (!json::parse(text, value, error))
        return false;
    return fromJson(value, out, error);
}

namespace {

/** Serialize a u64 vector as a comma-joined decimal list. */
std::string
joinU64(const std::vector<std::uint64_t> &values)
{
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ",";
        out += std::to_string(values[i]);
    }
    return out;
}

bool
splitU64(const std::string &text, std::vector<std::uint64_t> &out)
{
    out.clear();
    if (text.empty())
        return true;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        std::uint64_t value = 0;
        if (!parseU64(item, value))
            return false;
        out.push_back(value);
    }
    return true;
}

} // namespace

std::vector<std::vector<std::string>>
ExperimentResult::toRows() const
{
    std::vector<std::vector<std::string>> rows;
    const auto u64 = [&rows](const char *name, std::uint64_t value) {
        rows.push_back({name, std::to_string(value)});
    };
    const auto real = [&rows](const char *name, double value) {
        rows.push_back({name, fmtDouble(value)});
    };
    const auto summary = [&](const char *prefix,
                             const SharingSummary &s) {
        const std::string p(prefix);
        real((p + "shared_hit_fraction").c_str(), s.sharedHitFraction);
        u64((p + "shared_hits").c_str(), s.sharedHits);
        u64((p + "private_hits").c_str(), s.privateHits);
        for (int c = 0; c < 4; ++c)
            u64((p + "class_hits_" + std::to_string(c)).c_str(),
                s.classHits[c]);
        for (int c = 0; c < 4; ++c)
            u64((p + "class_residencies_" + std::to_string(c)).c_str(),
                s.classResidencies[c]);
        rows.push_back({p + "sharer_hits", joinU64(s.sharerHits)});
        u64((p + "dead_residencies").c_str(), s.deadResidencies);
    };

    u64("stream_refs", streamRefs);
    u64("misses", misses);
    u64("demand_accesses", demandAccesses);
    u64("footprint_blocks", footprintBlocks);
    u64("hier_demand_accesses", hierarchy.demandAccesses);
    u64("hier_llc_accesses", hierarchy.llcAccesses);
    u64("hier_llc_hits", hierarchy.llcHits);
    u64("hier_llc_misses", hierarchy.llcMisses);
    real("hier_llc_mpkr", hierarchy.llcMpkr);
    u64("hier_upgrades", hierarchy.upgrades);
    u64("hier_interventions", hierarchy.interventions);
    u64("hier_back_invalidations", hierarchy.backInvalidations);
    u64("hier_mem_reads", hierarchy.memReads);
    u64("hier_mem_writebacks", hierarchy.memWritebacks);
    u64("hier_cycles", hierarchy.cycles);
    summary("hier_", hierarchy.sharing);
    u64("trace_footprint_blocks", traceFootprintBlocks);
    u64("trace_shared_footprint_blocks", traceSharedFootprintBlocks);
    real("write_fraction", writeFraction);
    summary("sharing_", sharing);
    real("mistake_rate", mistakeRate);
    real("shared_victim_rate", sharedVictimRate);
    real("accuracy", accuracy);
    real("precision", precision);
    real("recall", recall);
    real("prefetch_accuracy", prefetchAccuracy);
    return rows;
}

bool
ExperimentResult::fromRows(
    const std::vector<std::vector<std::string>> &rows,
    ExperimentResult &out, std::string *error)
{
    ExperimentResult result;
    for (const auto &row : rows) {
        if (row.size() != 2)
            return setError(error, "result row must have 2 cells");
        const std::string &name = row[0];
        const std::string &text = row[1];
        bool ok = true;
        const auto u64 = [&](std::uint64_t &field) {
            ok = parseU64(text, field);
        };
        const auto real = [&](double &field) {
            ok = parseDouble(text, field);
        };
        const auto summaryField = [&](const std::string &suffix,
                                      SharingSummary &s) {
            if (suffix == "shared_hit_fraction")
                real(s.sharedHitFraction);
            else if (suffix == "shared_hits")
                u64(s.sharedHits);
            else if (suffix == "private_hits")
                u64(s.privateHits);
            else if (suffix == "sharer_hits")
                ok = splitU64(text, s.sharerHits);
            else if (suffix == "dead_residencies")
                u64(s.deadResidencies);
            else if (suffix.rfind("class_hits_", 0) == 0)
                u64(s.classHits[suffix.back() - '0']);
            else if (suffix.rfind("class_residencies_", 0) == 0)
                u64(s.classResidencies[suffix.back() - '0']);
            else
                ok = false;
            return ok;
        };

        if (name == "stream_refs")
            u64(result.streamRefs);
        else if (name == "misses")
            u64(result.misses);
        else if (name == "demand_accesses")
            u64(result.demandAccesses);
        else if (name == "footprint_blocks")
            u64(result.footprintBlocks);
        else if (name == "hier_demand_accesses")
            u64(result.hierarchy.demandAccesses);
        else if (name == "hier_llc_accesses")
            u64(result.hierarchy.llcAccesses);
        else if (name == "hier_llc_hits")
            u64(result.hierarchy.llcHits);
        else if (name == "hier_llc_misses")
            u64(result.hierarchy.llcMisses);
        else if (name == "hier_llc_mpkr")
            real(result.hierarchy.llcMpkr);
        else if (name == "hier_upgrades")
            u64(result.hierarchy.upgrades);
        else if (name == "hier_interventions")
            u64(result.hierarchy.interventions);
        else if (name == "hier_back_invalidations")
            u64(result.hierarchy.backInvalidations);
        else if (name == "hier_mem_reads")
            u64(result.hierarchy.memReads);
        else if (name == "hier_mem_writebacks")
            u64(result.hierarchy.memWritebacks);
        else if (name == "hier_cycles")
            u64(result.hierarchy.cycles);
        else if (name == "trace_footprint_blocks")
            u64(result.traceFootprintBlocks);
        else if (name == "trace_shared_footprint_blocks")
            u64(result.traceSharedFootprintBlocks);
        else if (name == "write_fraction")
            real(result.writeFraction);
        else if (name == "mistake_rate")
            real(result.mistakeRate);
        else if (name == "shared_victim_rate")
            real(result.sharedVictimRate);
        else if (name == "accuracy")
            real(result.accuracy);
        else if (name == "precision")
            real(result.precision);
        else if (name == "recall")
            real(result.recall);
        else if (name == "prefetch_accuracy")
            real(result.prefetchAccuracy);
        else if (name.rfind("hier_", 0) == 0)
            summaryField(name.substr(5), result.hierarchy.sharing);
        else if (name.rfind("sharing_", 0) == 0)
            summaryField(name.substr(8), result.sharing);
        else
            return setError(error,
                            "unknown result field '" + name + "'");
        if (!ok)
            return setError(error, "malformed result value for '" +
                                       name + "': '" + text + "'");
    }
    out = std::move(result);
    return true;
}

} // namespace casim
