/**
 * @file
 * Multi-process test helper: run one function in several forked
 * children at the same moment.
 */

#ifndef ULPEAK_TESTS_FORK_UTIL_HH
#define ULPEAK_TESTS_FORK_UTIL_HH

#include <cerrno>
#include <functional>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace ulpeak {
namespace test {

/**
 * Fork @p n children, hold them on one pipe until all exist, then let
 * each run @p child at once. Returns how many children exited with
 * child() == true. Call it while no other thread runs: only the
 * calling thread survives a fork.
 */
inline unsigned
forkAndRun(unsigned n, const std::function<bool()> &child)
{
    int gate[2];
    if (::pipe(gate) != 0)
        return 0;
    std::vector<pid_t> kids;
    for (unsigned k = 0; k < n; ++k) {
        pid_t pid = ::fork();
        if (pid == 0) {
            ::close(gate[1]);
            char c;
            while (::read(gate[0], &c, 1) < 0 && errno == EINTR) {
            }
            ::_exit(child() ? 0 : 1);
        }
        if (pid > 0)
            kids.push_back(pid);
    }
    ::close(gate[0]);
    ::close(gate[1]); // EOF on the gate releases every child
    unsigned ok = 0;
    for (pid_t pid : kids) {
        int status = 0;
        if (::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
            WEXITSTATUS(status) == 0)
            ++ok;
    }
    return ok;
}

} // namespace test
} // namespace ulpeak

#endif // ULPEAK_TESTS_FORK_UTIL_HH
