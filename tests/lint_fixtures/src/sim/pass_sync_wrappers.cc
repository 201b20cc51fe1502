// mellow_lint fixture: the sanctioned spellings — capability-annotated
// sync.hh wrappers — must stay clean under the same src/-scoped rules
// that reject the raw primitives next door. Without this control a
// blanket-matching regex could pass the WILL_FAIL sibling vacuously.
#include "sim/sync.hh"

namespace
{

mellowsim::sync::Mutex g_tableMutex;

} // namespace

void
touchTable()
{
    mellowsim::sync::LockGuard guard(g_tableMutex);
}

void
runWorkers()
{
    mellowsim::sync::ThreadGroup workers(2);
    workers.spawn([] { touchTable(); });
    workers.spawn([] { touchTable(); });
    workers.joinAll();
}
