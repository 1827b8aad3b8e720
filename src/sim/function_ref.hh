/**
 * @file
 * A non-owning reference to a callable: one object pointer plus one
 * plain function pointer. Passing a lambda as a FunctionRef allocates
 * nothing and copies nothing, unlike a std::function, so the simulator
 * can take a fresh capture-heavy cycle driver every step for free.
 * The referenced callable must outlive every call through the
 * reference -- in practice, the call it is passed to.
 */

#ifndef ULPEAK_SIM_FUNCTION_REF_HH
#define ULPEAK_SIM_FUNCTION_REF_HH

#include <memory>
#include <type_traits>
#include <utility>

namespace ulpeak {

template <typename Sig> class FunctionRef;

template <typename R, typename... Args> class FunctionRef<R(Args...)> {
  public:
    /** The empty reference: operator bool is false. */
    FunctionRef() = default;

    /** Reference @p f. A callable that tests false (an empty
     *  std::function, a null function pointer) yields the empty
     *  reference. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                  std::is_invocable_r_v<R, F &, Args...>>>
    FunctionRef(F &&f)
    {
        if constexpr (std::is_constructible_v<bool, const F &>)
            if (!static_cast<bool>(f))
                return;
        obj_ = const_cast<void *>(
            static_cast<const void *>(std::addressof(f)));
        call_ = [](void *o, Args... a) -> R {
            return (*static_cast<std::remove_reference_t<F> *>(o))(
                std::forward<Args>(a)...);
        };
    }

    /** Reference member function @p Method of @p obj: a direct call
     *  through one thunk, no capture object needed. */
    template <auto Method, typename T>
    static FunctionRef
    member(T &obj)
    {
        FunctionRef r;
        r.obj_ = &obj;
        r.call_ = [](void *o, Args... a) -> R {
            return (static_cast<T *>(o)->*Method)(
                std::forward<Args>(a)...);
        };
        return r;
    }

    explicit operator bool() const { return call_ != nullptr; }

    R
    operator()(Args... a) const
    {
        return call_(obj_, std::forward<Args>(a)...);
    }

  private:
    void *obj_ = nullptr;
    R (*call_)(void *, Args...) = nullptr;
};

} // namespace ulpeak

#endif // ULPEAK_SIM_FUNCTION_REF_HH
