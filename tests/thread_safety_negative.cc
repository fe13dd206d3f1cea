// Negative-compile fixture for the thread-safety annotation layer: this
// file MUST NOT compile under clang with -Wthread-safety -Werror (the
// `tsa` preset / tools/ci.sh analyze stage verify that it is rejected). It
// is never part of any normal build target.
//
// Each function below commits a distinct lock-discipline crime against
// the annotated primitives in src/common/thread_annotations.h.

#include "common/thread_annotations.h"

namespace pcdb {
namespace {

class Account {
 public:
  // Crime 1: touches a PCDB_GUARDED_BY member without holding the mutex.
  void DepositUnlocked(int amount) { balance_ += amount; }

  // Crime 2: acquires the lock but claims (via PCDB_EXCLUDES) that it
  // must not be held — then calls a PCDB_REQUIRES function without it.
  int ReadMismatched() PCDB_EXCLUDES(mu_) { return BalanceLocked(); }

  // Crime 3: manual Lock without Unlock on one path.
  void LeakLock(bool take) {
    if (take) mu_.Lock();
    balance_ = 0;
  }

 private:
  int BalanceLocked() const PCDB_REQUIRES(mu_) { return balance_; }

  mutable Mutex mu_;
  int balance_ PCDB_GUARDED_BY(mu_) = 0;
};

}  // namespace
}  // namespace pcdb

int main() {
  pcdb::Account account;
  account.DepositUnlocked(1);
  account.ReadMismatched();
  account.LeakLock(true);
  return 0;
}
