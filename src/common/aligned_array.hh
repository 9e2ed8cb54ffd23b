/**
 * @file
 * A fixed-size array of trivially destructible records aligned to the
 * record's own (over-)alignment.
 */

#ifndef CASIM_COMMON_ALIGNED_ARRAY_HH
#define CASIM_COMMON_ALIGNED_ARRAY_HH

#include <cstddef>
#include <memory>
#include <type_traits>

namespace casim {

/**
 * `count` value-initialized T, aligned to `Align` (at least alignof(T)).
 *
 * Plain new[] aligned by hand rather than an over-aligned std::vector:
 * the align_val_t operator new leaves glibc's heap in a state where
 * the next large allocations (a capture's next-use index) fault in
 * fresh pages, measurably slowing capture set-up.  A plain large
 * malloc, on the other hand, returns 16 bytes past a page boundary,
 * which would split every other 32- or 64-byte record across two host
 * cache lines.
 */
template <typename T, std::size_t Align = alignof(T)>
class AlignedArray
{
    // The storage is raw bytes; no destructor ever runs on a T.
    static_assert(std::is_trivially_destructible_v<T>);
    static_assert(Align >= alignof(T) && Align % alignof(T) == 0);

  public:
    AlignedArray() = default;

    explicit AlignedArray(std::size_t count)
    {
        std::size_t space = count * sizeof(T) + Align;
        store_ = std::make_unique_for_overwrite<unsigned char[]>(space);
        void *base = store_.get();
        data_ = static_cast<T *>(
            std::align(Align, count * sizeof(T), base, space));
        std::uninitialized_value_construct_n(data_, count);
    }

    /** First record; null for a default-constructed array. */
    T *data() { return data_; }
    const T *data() const { return data_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

  private:
    std::unique_ptr<unsigned char[]> store_;
    T *data_ = nullptr;
};

} // namespace casim

#endif // CASIM_COMMON_ALIGNED_ARRAY_HH
