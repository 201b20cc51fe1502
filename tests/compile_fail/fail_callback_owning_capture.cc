// InlineCallback holds only trivially copyable state, copied with a
// memcpy and never destroyed: a lambda that captures an owning object
// (here a std::string) by value must be rejected, not stored.
#include <string>

#include "sim/inline_callback.hh"

void
caller(const std::string &name)
{
    mellowsim::InlineCallback cb = [name] { (void)name.size(); };
    cb();
}
