/**
 * @file
 * InlineCallback: a move-only callable with fixed inline storage and no
 * heap fallback, the completion-callback currency of the simulation hot
 * path (sim::EventQueue::Callback, flash::DoneCallback).
 *
 * std::function is the wrong tool there: its small-buffer optimization
 * is implementation-defined (16 bytes on libstdc++), so the capturing
 * lambdas the kernel schedules per flash command routinely spill to the
 * heap — one allocation plus one free per simulated event, millions per
 * run. InlineCallback instead *rejects at compile time* any callable
 * that does not fit its inline buffer: every capture set that compiles
 * is guaranteed allocation-free, and growing a capture past the budget
 * is a build error at the offending construction site, not a silent
 * perf regression.
 *
 * Properties:
 *  - move-only (captures may own move-only resources; copying a
 *    completion continuation is always a bug anyway);
 *  - empty state, contextually convertible to bool, assignable from
 *    nullptr (matching the std::function call sites it replaced);
 *  - `canHold<F>` exposes the acceptance predicate so tests can
 *    static_assert both directions (see tests/test_inline_callback.cc).
 *
 * Capacity is a template knob; the kernel aliases pick the smallest
 * sizes that fit their deepest capture chains (documented at the alias
 * definitions — the exact byte budgets are part of the design).
 */
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ida::sim {

template <typename Signature, std::size_t Capacity = 64>
class InlineCallback; // primary template: only the R(Args...) form exists

template <typename R, typename... Args, std::size_t Capacity>
class InlineCallback<R(Args...), Capacity>
{
  public:
    /** Inline storage in bytes; callables beyond this do not compile. */
    static constexpr std::size_t capacity = Capacity;

    /**
     * Buffer alignment. Pointer-sized on purpose: kernel captures are
     * pointers, ids and ticks. max_align_t (16 on x86-64) would pad
     * sizeof(InlineCallback) past Capacity + vtable and blow the byte
     * budgets of nested callbacks. Over-aligned captures are rejected
     * by canHold like oversized ones.
     */
    static constexpr std::size_t alignment = alignof(void *);

    /**
     * True when @p F (after decay) can be stored: it must fit the
     * buffer and its alignment, be movable, and be invocable with the
     * callback's signature.
     */
    template <typename F>
    static constexpr bool canHold =
        sizeof(std::remove_cvref_t<F>) <= Capacity &&
        alignof(std::remove_cvref_t<F>) <= alignment &&
        std::is_move_constructible_v<std::remove_cvref_t<F>> &&
        std::is_invocable_r_v<R, std::remove_cvref_t<F> &, Args...>;

    InlineCallback() noexcept = default;
    InlineCallback(std::nullptr_t) noexcept {}

    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
                 canHold<F>)
    InlineCallback(F &&f)
    {
        using Fn = std::remove_cvref_t<F>;
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &kOps<Fn>;
    }

    InlineCallback(InlineCallback &&other) noexcept
    {
        moveFrom(other);
    }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    /**
     * Rebind to a new callable in place (reset + construct). The
     * kernel's scheduling path assigns fresh lambdas straight into
     * pooled slots through this, skipping one relocation per event.
     */
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
                 canHold<F>)
    InlineCallback &
    operator=(F &&f)
    {
        using Fn = std::remove_cvref_t<F>;
        reset();
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &kOps<Fn>;
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    InlineCallback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    ~InlineCallback() { reset(); }

    /** Destroy the held callable, leaving the empty state. */
    void
    reset() noexcept
    {
        if (ops_) {
            if (!ops_->trivial)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** True when a callable is held. */
    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /**
     * Invoke; calling an empty callback is undefined (like a null fp).
     * const like std::function's operator(): the callback is logically
     * const even when the held callable mutates its captures.
     */
    R
    operator()(Args... args) const
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move-construct src's callable into dst, destroying src's. */
        void (*relocate)(void *src, void *dst);
        void (*destroy)(void *);
        /**
         * Trivially copyable + destructible: moves become one fixed-size
         * memcpy and destruction a no-op, with no indirect call. This is
         * every kernel capture set (pointers, ids, ticks), so the pooled
         * event slots recycle at memcpy speed; only callables owning
         * resources (e.g. a nested InlineCallback) take the out-of-line
         * path.
         */
        bool trivial;
    };

    template <typename Fn>
    static constexpr Ops kOps = {
        [](void *p, Args... args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
        [](void *src, void *dst) {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { std::launder(reinterpret_cast<Fn *>(p))->~Fn(); },
        std::is_trivially_copyable_v<Fn> &&
            std::is_trivially_destructible_v<Fn>,
    };

    void
    moveFrom(InlineCallback &other) noexcept
    {
        const Ops *ops = other.ops_;
        if (ops) {
            // Trivial path copies the whole fixed-size buffer, tail
            // bytes included: the constant size lets the compiler
            // inline the move as a few vector loads/stores with no
            // per-type size dispatch. The indeterminate tail is copied
            // but never read as a value, which is exactly what GCC's
            // -Wuninitialized cannot see.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
            if (ops->trivial)
                std::memcpy(buf_, other.buf_, Capacity);
            else
                ops->relocate(other.buf_, buf_);
#pragma GCC diagnostic pop
            ops_ = ops;
            other.ops_ = nullptr;
        }
    }

    // mutable so the const operator() can hand the callable a non-const
    // self (std::function semantics: logically const, captures mutate).
    alignas(alignof(void *)) mutable std::byte buf_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace ida::sim
