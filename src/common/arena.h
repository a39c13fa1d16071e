/**
 * @file
 * Monotonic bump-pointer arena with finalizer support.
 *
 * The executor's Invocation call-tree records all live until run()
 * returns, which makes a bump allocator the exact fit: make<T>() is a
 * pointer increment in steady state, and the whole tree is released at
 * once when the arena is destroyed (or reset).  Objects with non-trivial
 * destructors are registered on an intrusive finalizer list (nodes are
 * themselves arena-allocated) and destroyed in reverse construction
 * order.
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
    explicit Arena(size_t chunk_bytes = 64 * 1024)
        : chunk_bytes_(chunk_bytes)
    {}

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    ~Arena() { runFinalizers(); }

    /** Raw aligned storage; lives until reset() or destruction. */
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
        size_t cap = bytes + align > chunk_bytes_ ? bytes + align
                                                  : chunk_bytes_;
        Chunk c;
        c.data = std::make_unique<char[]>(cap);
        c.cap = cap;
        uintptr_t base = reinterpret_cast<uintptr_t>(c.data.get());
        size_t offset =
            ((base + align - 1) & ~(uintptr_t{align} - 1)) - base;
        c.used = offset + bytes;
        chunks_.push_back(std::move(c));
        return chunks_.back().data.get() + offset;
    }

    /**
     * Construct a T in the arena.  Non-trivially-destructible types are
     * finalized (reverse order) when the arena is reset or destroyed.
     */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        void *mem = allocate(sizeof(T), alignof(T));
        T *obj = new (mem) T(std::forward<Args>(args)...);
        if constexpr (!std::is_trivially_destructible_v<T>) {
            auto *fin = static_cast<Finalizer *>(
                allocate(sizeof(Finalizer), alignof(Finalizer)));
            fin->object = obj;
            fin->destroy = [](void *p) { static_cast<T *>(p)->~T(); };
            fin->next = finalizers_;
            finalizers_ = fin;
        }
        return obj;
    }

    /**
     * Uninitialized array of @p n trivially-destructible T; lives until
     * reset() or destruction (no finalizer is registered).
     */
    template <typename T>
    T *
    makeArray(size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena arrays are never finalized");
        if (n == 0)
            return nullptr;
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /** Destroy all arena objects and release the memory. */
    void
    reset()
    {
        runFinalizers();
        finalizers_ = nullptr;
        chunks_.clear();
    }

  private:
    struct Chunk
    {
        std::unique_ptr<char[]> data;
        size_t cap = 0;
        size_t used = 0;
    };

    struct Finalizer
    {
        void *object;
        void (*destroy)(void *);
        Finalizer *next;
    };

    void
    runFinalizers()
    {
        for (Finalizer *f = finalizers_; f != nullptr; f = f->next)
            f->destroy(f->object);
        finalizers_ = nullptr;
    }

    size_t chunk_bytes_;
    std::vector<Chunk> chunks_;
    Finalizer *finalizers_ = nullptr;
};

} // namespace square

#endif // SQUARE_COMMON_ARENA_H
