// Reader-writer spinlock on a single catomic word, with clang
// thread-safety annotations.
//
// Drop-in shaped like common/thread_annotations.hpp's SharedMutex: the one
// annotated capability ParallelQueryEngine guards its graph with (shared
// reads by chunk evaluations, exclusive writes by absorb and the graph's
// owner).  The model checker verifies the guard protocol itself — mutual
// exclusion and reader/writer happens-before — in
// tests/mc/graph_guard_mc_test.cpp, something the
// thread-safety annotations cannot express (they check acquisition
// discipline, not memory ordering).
//
// State word: 0 = free, -1 = writer, n>0 = n readers.
#pragma once

#include <cstdint>

#include "common/thread_annotations.hpp"
#include "concurrency/catomic.hpp"

STASH_CONCURRENCY_NS_BEGIN

class STASH_CAPABILITY("shared_mutex") RwSpinlock {
 public:
  RwSpinlock() : state_(0, "rw.state") {}

  // Lock bodies are excluded from the static analysis (the standard
  // pattern for implementing an annotated capability): call sites are
  // still checked against the ACQUIRE/RELEASE attributes.
  void lock() STASH_ACQUIRE() STASH_NO_THREAD_SAFETY_ANALYSIS {
    while (!try_lock_impl()) {
    }
  }

  bool try_lock() STASH_TRY_ACQUIRE(true) STASH_NO_THREAD_SAFETY_ANALYSIS {
    return try_lock_impl();
  }

  void unlock() STASH_RELEASE() STASH_NO_THREAD_SAFETY_ANALYSIS {
    state_.store(0, std::memory_order_release);
  }

  void lock_shared() STASH_ACQUIRE_SHARED() STASH_NO_THREAD_SAFETY_ANALYSIS {
    while (!try_lock_shared_impl()) {
    }
  }

  bool try_lock_shared() STASH_TRY_ACQUIRE(true)
      STASH_NO_THREAD_SAFETY_ANALYSIS {
    return try_lock_shared_impl();
  }

  void unlock_shared() STASH_RELEASE_SHARED()
      STASH_NO_THREAD_SAFETY_ANALYSIS {
    // Release so the writer that next acquires the word cannot have its
    // writes ordered before this reader's critical-section reads.
    state_.fetch_sub(1, std::memory_order_release);
  }

 private:
  bool try_lock_impl() {
    std::int32_t expected = 0;
    // Acquire pairs with the release in unlock()/unlock_shared(): the
    // writer must see every access the previous holders made.
    return state_.compare_exchange_weak(expected, -1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed);
  }

  bool try_lock_shared_impl() {
    std::int32_t s = state_.load(std::memory_order_relaxed);
    if (s < 0) return false;
    return state_.compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                        std::memory_order_relaxed);
  }

  catomic<std::int32_t> state_;
};

/// RAII guards mirroring WriterLockT/ReaderLock from thread_annotations.hpp.
class STASH_SCOPED_CAPABILITY RwSpinWriterLock {
 public:
  explicit RwSpinWriterLock(RwSpinlock& lock) STASH_ACQUIRE(lock)
      : lock_(lock) {
    lock_.lock();
  }
  ~RwSpinWriterLock() STASH_MC_MAY_THROW STASH_RELEASE() { lock_.unlock(); }

  RwSpinWriterLock(const RwSpinWriterLock&) = delete;
  RwSpinWriterLock& operator=(const RwSpinWriterLock&) = delete;

 private:
  RwSpinlock& lock_;
};

class STASH_SCOPED_CAPABILITY RwSpinReaderLock {
 public:
  explicit RwSpinReaderLock(RwSpinlock& lock) STASH_ACQUIRE_SHARED(lock)
      : lock_(lock) {
    lock_.lock_shared();
  }
  ~RwSpinReaderLock() STASH_MC_MAY_THROW STASH_RELEASE() {
    lock_.unlock_shared();
  }

  RwSpinReaderLock(const RwSpinReaderLock&) = delete;
  RwSpinReaderLock& operator=(const RwSpinReaderLock&) = delete;

 private:
  RwSpinlock& lock_;
};

STASH_CONCURRENCY_NS_END
