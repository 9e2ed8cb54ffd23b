/**
 * @file
 * Implementation of study configuration.
 */

#include "sim/config.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace casim {

CacheGeometry
StudyConfig::llcGeometry(std::uint64_t bytes) const
{
    return CacheGeometry{bytes, llcWays, kBlockBytes};
}

SeqNo
StudyConfig::oracleWindow(std::uint64_t llc_bytes) const
{
    const auto blocks = llc_bytes / kBlockBytes;
    return static_cast<SeqNo>(oracleWindowFactor *
                              static_cast<double>(blocks));
}

SeqNo
StudyConfig::oracleNearWindow(std::uint64_t llc_bytes) const
{
    if (nearWindowFactor <= 0.0)
        return 0;
    const auto blocks = llc_bytes / kBlockBytes;
    return static_cast<SeqNo>(nearWindowFactor *
                              static_cast<double>(blocks));
}

std::string
capacityLabel(std::uint64_t bytes)
{
    return std::to_string(bytes >> 20) + "mb";
}

StudyConfig
StudyConfig::fromOptions(const Options &options)
{
    StudyConfig config;
    config.workload.threads = static_cast<unsigned>(
        options.getUint("threads", config.workload.threads));
    config.workload.scale =
        options.getDouble("scale", config.workload.scale);
    config.workload.seed = options.getUint("seed", config.workload.seed);

    config.hierarchy.numCores = config.workload.threads;
    config.llcSmallBytes =
        options.getUint("llc-small-mb", config.llcSmallBytes >> 20)
        << 20;
    config.llcLargeBytes =
        options.getUint("llc-large-mb", config.llcLargeBytes >> 20)
        << 20;
    config.llcWays = static_cast<unsigned>(
        options.getUint("llc-ways", config.llcWays));
    config.oracleWindowFactor =
        options.getDouble("window-factor", config.oracleWindowFactor);
    config.protectionRounds = static_cast<unsigned>(
        options.getUint("protection-rounds", config.protectionRounds));
    config.postShareRounds = static_cast<unsigned>(
        options.getUint("post-rounds", config.postShareRounds));
    config.protectionQuota =
        options.getDouble("quota", config.protectionQuota);
    config.nearWindowFactor =
        options.getDouble("near-factor", config.nearWindowFactor);
    config.dueling = options.getBool("dueling", config.dueling);
    config.predictor.indexBits = static_cast<unsigned>(
        options.getUint("pred-index-bits", config.predictor.indexBits));
    config.predictor.counterBits = static_cast<unsigned>(options.getUint(
        "pred-counter-bits", config.predictor.counterBits));
    config.predictor.threshold = static_cast<unsigned>(
        options.getUint("pred-threshold", config.predictor.threshold));

    if (options.has("capture-dir")) {
        config.captureDir = options.getString("capture-dir", "");
        if (config.captureDir.empty())
            config.captureDir = ".capture-cache";
    } else if (const char *env = std::getenv("CASIM_CAPTURE_DIR")) {
        config.captureDir = env;
    }

    std::uint64_t shards = config.shards;
    if (options.has("shards")) {
        shards = options.getUint("shards", shards);
    } else if (const char *env = std::getenv("CASIM_SHARDS")) {
        shards = std::strtoull(env, nullptr, 10);
    }
    if (shards == 0)
        shards = 1;
    if ((shards & (shards - 1)) != 0)
        casim_fatal("--shards / CASIM_SHARDS must be a power of two, ",
                    "got ", shards);
    config.shards = static_cast<unsigned>(shards);
    return config;
}

} // namespace casim
