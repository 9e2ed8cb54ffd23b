/**
 * @file
 * Lightweight gem5-flavoured statistics package.
 *
 * A StatGroup owns a set of named statistics (counters, vectors,
 * distributions, histograms and formulas) and can render them as an
 * aligned text listing or CSV.  Simulator components each hold a group and
 * register their stats at construction time, so every experiment binary
 * gets uniform reporting for free.
 */

#ifndef CASIM_COMMON_STATS_HH
#define CASIM_COMMON_STATS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace casim {
namespace stats {

/** Base class for all named statistics. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }
    virtual ~StatBase() = default;

    /** Hierarchical name of the statistic, e.g. "llc.demand_hits". */
    const std::string &name() const { return name_; }

    /** One-line human-readable description. */
    const std::string &desc() const { return desc_; }

    /** Reset the statistic to its freshly-constructed value. */
    virtual void reset() = 0;

    /** Append one or more "name value" rows to a text listing. */
    virtual void print(std::ostream &os) const = 0;

    /** Append "name,value" rows to a CSV listing. */
    virtual void printCsv(std::ostream &os) const = 0;

    /**
     * Append exactly one JSON object member, `"name": {...}`, to a JSON
     * listing.  The value object always carries a "kind" tag naming the
     * statistic type (see docs/stats_schema.md); the caller owns the
     * separating commas and the enclosing braces.
     */
    virtual void printJson(std::ostream &os) const = 0;

    /**
     * Fold `other` into this statistic.  `other` must be the same kind
     * with the same shape (labels, bucket bounds); anything else is a
     * simulator bug and panics.  Formulas are the one no-op: they are
     * derived from this group's live state, so after the underlying
     * counters merge the formula already reflects the union.
     */
    virtual void mergeFrom(const StatBase &other) = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A monotonically increasing 64-bit event counter. */
class Counter : public StatBase
{
  public:
    using StatBase::StatBase;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    /** Current count. */
    std::uint64_t value() const { return value_; }

    void reset() override { value_ = 0; }
    void print(std::ostream &os) const override;
    void printCsv(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void mergeFrom(const StatBase &other) override;

  private:
    std::uint64_t value_ = 0;
};

/**
 * A Counter whose increments are lock-free relaxed atomics.
 *
 * For counters bumped by concurrent service threads (the experiment
 * queue, the capture cache, the label-plane and sharded-replay
 * singletons) while another thread renders the owning group — e.g. the
 * casimd stats op answering mid-batch.  Renders with the same
 * "counter" kind as Counter, so the JSON schema is unchanged.  Relaxed
 * ordering is sufficient: readers need a torn-free value, not ordering
 * against other state.
 */
class AtomicCounter : public StatBase
{
  public:
    using StatBase::StatBase;

    AtomicCounter &
    operator++()
    {
        value_.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }

    AtomicCounter &
    operator+=(std::uint64_t n)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
        return *this;
    }

    /** Subtract n; for counters that track an amount held. */
    AtomicCounter &
    operator-=(std::uint64_t n)
    {
        value_.fetch_sub(n, std::memory_order_relaxed);
        return *this;
    }

    /** Raise the value to at least `v` (a running maximum). */
    void noteMax(std::uint64_t v);

    /** Current count. */
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() override
    {
        value_.store(0, std::memory_order_relaxed);
    }
    void print(std::ostream &os) const override;
    void printCsv(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void mergeFrom(const StatBase &other) override;

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** A fixed-length vector of counters with per-element labels. */
class CounterVector : public StatBase
{
  public:
    CounterVector(std::string name, std::string desc,
                  std::vector<std::string> labels)
        : StatBase(std::move(name), std::move(desc)),
          labels_(std::move(labels)), values_(labels_.size(), 0)
    {
    }

    /** Increment element i by n. */
    void add(std::size_t i, std::uint64_t n = 1) { values_.at(i) += n; }

    /** Current count of element i. */
    std::uint64_t value(std::size_t i) const { return values_.at(i); }

    /** Sum of all elements. */
    std::uint64_t total() const;

    /** Number of elements. */
    std::size_t size() const { return values_.size(); }

    void reset() override;
    void print(std::ostream &os) const override;
    void printCsv(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void mergeFrom(const StatBase &other) override;

  private:
    std::vector<std::string> labels_;
    std::vector<std::uint64_t> values_;
};

/**
 * Running scalar summary (count / mean / min / max / stddev).
 *
 * Internally synchronized: sample(), the accessors, the renderers and
 * mergeFrom() all take a per-instance mutex, so a distribution in a
 * long-lived service group (runner task times, sharded-replay substream
 * sizes) can be sampled on worker threads while another thread renders
 * it.  Every current user samples at coarse granularity (per task, per
 * replay), so the lock is not on a simulation hot path.
 */
class Distribution : public StatBase
{
  public:
    using StatBase::StatBase;

    /** Record one sample. */
    void sample(double x);

    std::uint64_t count() const;
    double mean() const;
    double min() const;
    double max() const;

    /** Population standard deviation of the samples. */
    double stddev() const;

    void reset() override;
    void print(std::ostream &os) const override;
    void printCsv(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void mergeFrom(const StatBase &other) override;

  private:
    /** One coherent reading of all five summary values. */
    struct Snapshot
    {
        std::uint64_t count;
        double mean, min, max, stddev;
    };
    Snapshot snapshotLocked() const;
    Snapshot snapshot() const;

    mutable std::mutex mutex_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Histogram over explicit bucket upper bounds (last bucket = overflow). */
class Histogram : public StatBase
{
  public:
    /**
     * @param bounds Ascending inclusive upper bounds; a sample x falls in
     *               the first bucket with x <= bound, else in overflow.
     */
    Histogram(std::string name, std::string desc,
              std::vector<double> bounds)
        : StatBase(std::move(name), std::move(desc)),
          bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
    {
    }

    /** Record one sample. */
    void sample(double x, std::uint64_t weight = 1);

    /** Count of bucket i (the last index is the overflow bucket). */
    std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }

    /** Number of buckets including overflow. */
    std::size_t buckets() const { return counts_.size(); }

    /** Total weight across all buckets. */
    std::uint64_t total() const;

    void reset() override;
    void print(std::ostream &os) const override;
    void printCsv(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void mergeFrom(const StatBase &other) override;

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_;
};

/** A derived value computed on demand from other statistics. */
class Formula : public StatBase
{
  public:
    Formula(std::string name, std::string desc,
            std::function<double()> fn)
        : StatBase(std::move(name), std::move(desc)), fn_(std::move(fn))
    {
    }

    /** Evaluate the formula now. */
    double value() const { return fn_(); }

    void reset() override {}
    void print(std::ostream &os) const override;
    void printCsv(std::ostream &os) const override;
    void printJson(std::ostream &os) const override;
    void mergeFrom(const StatBase &other) override;

  private:
    std::function<double()> fn_;
};

/**
 * Container that owns statistics and renders them together.
 */
class StatGroup
{
  public:
    /** @param prefix Prepended (with '.') to all registered stat names. */
    explicit StatGroup(std::string prefix = "") : prefix_(std::move(prefix))
    {
    }

    /** Register a counter and return a reference that stays valid. */
    Counter &addCounter(const std::string &name, const std::string &desc);

    /** Register a lock-free counter for concurrently bumped stats. */
    AtomicCounter &addAtomicCounter(const std::string &name,
                                    const std::string &desc);

    /** Register a labelled counter vector. */
    CounterVector &addVector(const std::string &name,
                             const std::string &desc,
                             std::vector<std::string> labels);

    /** Register a running distribution. */
    Distribution &addDistribution(const std::string &name,
                                  const std::string &desc);

    /** Register a histogram with explicit bucket bounds. */
    Histogram &addHistogram(const std::string &name,
                            const std::string &desc,
                            std::vector<double> bounds);

    /** Register a derived formula. */
    Formula &addFormula(const std::string &name, const std::string &desc,
                        std::function<double()> fn);

    /** Reset every owned statistic. */
    void reset();

    /** Render an aligned text listing of every owned statistic. */
    void dump(std::ostream &os) const;

    /** Render a "name,value" CSV listing of every owned statistic. */
    void dumpCsv(std::ostream &os) const;

    /**
     * Render one JSON object, `{"stat": {...}, ...}`, holding every
     * owned statistic keyed by its full (prefixed) name.
     */
    void dumpJson(std::ostream &os) const;

    /**
     * Fold every statistic of `other` into the matching statistic of
     * this group, pairing by registration order.  The groups must be
     * structurally congruent — same statistic count, and pairwise the
     * same full names and kinds — as two instances of the same
     * component always are (e.g. per-shard caches).  Any mismatch is a
     * simulator bug and panics.  Formulas are left untouched: they
     * derive from this group's live state.
     */
    void mergeFrom(const StatGroup &other);

    /** Look up a statistic by its full name; nullptr if absent. */
    const StatBase *find(const std::string &name) const;

    /** The prefix this group qualifies its stat names with. */
    const std::string &prefix() const { return prefix_; }

    /** Number of owned statistics. */
    std::size_t size() const { return stats_.size(); }

  private:
    std::string qualify(const std::string &name) const;

    std::string prefix_;
    std::vector<std::unique_ptr<StatBase>> stats_;
};

/**
 * The value of a statistic that renders with the "counter" kind —
 * a Counter or an AtomicCounter; nullopt for any other kind (or null).
 * Lets readers stay agnostic of which counter flavour a group uses.
 */
std::optional<std::uint64_t> counterValue(const StatBase *stat);

/** Append `text` JSON-escaped and double-quoted to `os`. */
void printJsonString(std::ostream &os, const std::string &text);

/**
 * Append a double as a valid JSON number that round-trips exactly
 * (17 significant digits); non-finite values are emitted as null.
 */
void printJsonNumber(std::ostream &os, double value);

} // namespace stats
} // namespace casim

#endif // CASIM_COMMON_STATS_HH
