/**
 * @file
 * A nullable `void()` callable with fixed inline storage.
 *
 * The completions on the demand-miss path (the core's MSHR waiters,
 * the hierarchy's retry hook, the controller's read delivery) and the
 * event kernel's timer actions are all small lambdas capturing `this`
 * and a word or two. InlineCallback stores such a lambda in place and
 * calls it through one function pointer; it never allocates.
 *
 * Only trivially copyable, trivially destructible functors are
 * accepted (checked at compile time), so InlineCallback itself is
 * trivially copyable: copying is a memcpy, destruction does nothing,
 * and a request or waiter record holding one stays trivially copyable
 * too. A lambda that captures an owning object by value (a
 * std::string, a std::function, a std::vector) does not compile;
 * capture a reference or an index instead.
 */

#ifndef MELLOWSIM_SIM_INLINE_CALLBACK_HH
#define MELLOWSIM_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mellowsim
{

/** See file comment. */
class InlineCallback
{
  public:
    /** Bytes of captured state a functor may occupy. */
    static constexpr std::size_t kStorageBytes = 24;

    /** The null callback. */
    constexpr InlineCallback() = default;
    constexpr InlineCallback(std::nullptr_t) {}

    /**
     * Store @p fn in place. Implicit, like std::function's, so a
     * lambda converts where a callback parameter expects one.
     */
    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, InlineCallback> &&
                  !std::is_same_v<Fn, std::nullptr_t>>>
    InlineCallback(F &&fn)
    {
        static_assert(std::is_invocable_r_v<void, const Fn &>,
                      "InlineCallback holds a const-callable void()");
        static_assert(std::is_trivially_copyable_v<Fn>,
                      "InlineCallback functors must be trivially "
                      "copyable: capture references or indices, not "
                      "owning objects");
        static_assert(std::is_trivially_destructible_v<Fn>,
                      "InlineCallback functors must be trivially "
                      "destructible");
        static_assert(sizeof(Fn) <= kStorageBytes,
                      "InlineCallback functor exceeds its inline "
                      "storage");
        static_assert(alignof(Fn) <= alignof(void *),
                      "InlineCallback functors must be at most "
                      "pointer-aligned");
        ::new (static_cast<void *>(_storage)) Fn(std::forward<F>(fn));
        _invoke = [](const void *obj) {
            (*static_cast<const Fn *>(obj))();
        };
    }

    /** True iff a callable is held. */
    explicit operator bool() const { return _invoke != nullptr; }

    /** Call the held callable; the callback must not be null. */
    void operator()() const { _invoke(_storage); }

  private:
    alignas(void *) unsigned char _storage[kStorageBytes] = {};
    void (*_invoke)(const void *) = nullptr;
};

static_assert(std::is_trivially_copyable_v<InlineCallback>);
static_assert(std::is_trivially_destructible_v<InlineCallback>);

} // namespace mellowsim

#endif // MELLOWSIM_SIM_INLINE_CALLBACK_HH
