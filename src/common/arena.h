/**
 * @file
 * Monotonic bump-pointer arena for trivially destructible objects.
 *
 * The executor's Invocation call-tree records all live until run()
 * returns, which makes a bump allocator the exact fit: make<T>() is a
 * pointer increment in steady state, and the whole tree is released at
 * once when the arena is destroyed.  No destructor ever runs on an
 * arena object, so only trivially destructible types may live here.
 *
 * Chunks are left uninitialised: make<T>() constructs its object, and
 * a makeArray<T>() slice is raw storage its owner writes before it
 * reads (the executor's ancilla lists are filled by the allocator, its
 * child lists are read only up to their push count).
 */

#ifndef SQUARE_COMMON_ARENA_H
#define SQUARE_COMMON_ARENA_H

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace square {

/** Monotonic allocation region; single-threaded, not copyable. */
class Arena
{
  public:
    /** Bytes per chunk; a larger request gets a chunk of its own. */
    static constexpr size_t kChunkBytes = 64 * 1024;

    Arena() = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Raw aligned storage; lives until the arena is destroyed. */
    void *
    allocate(size_t bytes, size_t align)
    {
        if (!chunks_.empty()) {
            Chunk &c = chunks_.back();
            // Align the actual pointer, not the chunk-relative offset:
            // the chunk base is only guaranteed new[]-aligned, so
            // over-aligned types need the absolute address rounded.
            uintptr_t base = reinterpret_cast<uintptr_t>(c.data.get());
            size_t offset =
                ((base + c.used + align - 1) & ~(uintptr_t{align} - 1)) -
                base;
            if (offset + bytes <= c.cap) {
                c.used = offset + bytes;
                return c.data.get() + offset;
            }
        }
        // New chunk; oversize requests get a dedicated chunk.
        size_t cap = bytes + align > kChunkBytes ? bytes + align
                                                 : kChunkBytes;
        Chunk c;
        c.data = std::make_unique_for_overwrite<char[]>(cap);
        c.cap = cap;
        uintptr_t base = reinterpret_cast<uintptr_t>(c.data.get());
        size_t offset =
            ((base + align - 1) & ~(uintptr_t{align} - 1)) - base;
        c.used = offset + bytes;
        chunks_.push_back(std::move(c));
        return chunks_.back().data.get() + offset;
    }

    /** Construct a trivially-destructible T in the arena. */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed");
        void *mem = allocate(sizeof(T), alignof(T));
        return new (mem) T(std::forward<Args>(args)...);
    }

    /** Uninitialized array of @p n trivially-destructible T. */
    template <typename T>
    T *
    makeArray(size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed");
        if (n == 0)
            return nullptr;
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

  private:
    struct Chunk
    {
        std::unique_ptr<char[]> data;
        size_t cap = 0;
        size_t used = 0;
    };

    std::vector<Chunk> chunks_;
};

} // namespace square

#endif // SQUARE_COMMON_ARENA_H
