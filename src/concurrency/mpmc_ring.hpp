// Bounded lock-free MPMC ring with sequence-numbered slots.
//
// This is the queue that will carry the dispatch→worker path of the
// real-thread parallel datapath (DESIGN.md §13).  The design is the
// classic bounded MPMC ring used by ODP's lock-free queues and Vyukov's
// mpmc_bounded_queue: each slot carries a sequence number that encodes,
// relative to the producer/consumer cursors, whether the slot is free,
// full, or in flight.  Producers claim a slot by CAS on the enqueue
// cursor, write the payload, then *release* the slot by bumping its
// sequence; consumers mirror that.  Cursor CASes are relaxed — the slot
// sequence is the only publication edge, which is exactly the property
// the model checker proves (tests/mc/mpmc_ring_mc_test.cpp).
//
// Progress: try_push/try_pop never block and never spin unboundedly; a
// cursor CAS failure means another thread made progress, and a full/empty
// verdict returns false immediately (ODP-style bounded retries).
//
// stash-lint: lock-free-file
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "concurrency/catomic.hpp"

STASH_CONCURRENCY_NS_BEGIN

template <typename T>
class MpmcRing {
 public:
  /// Capacity must be a power of two (>= 2): slot index = pos & mask, and
  /// sequence arithmetic relies on the wrap being a multiple of capacity.
  explicit MpmcRing(std::size_t capacity)
      : capacity_(capacity),
        mask_(capacity - 1),
        cells_(std::make_unique<Cell[]>(capacity)),
        enqueue_pos_(0, "ring.enqueue_pos"),
        dequeue_pos_(0, "ring.dequeue_pos") {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 &&
           "MpmcRing capacity must be a power of two >= 2");
    for (std::size_t i = 0; i < capacity; ++i)
      cells_[i].seq.store(static_cast<std::uint64_t>(i),
                          std::memory_order_relaxed);
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  /// Destruction drains: payloads that were published but never consumed
  /// are exactly the slots in [dequeue_pos, enqueue_pos) whose sequence
  /// reads "full" (pos + 1) — an in-flight claim that never published has
  /// no constructed payload and is skipped.  Runs with no concurrent
  /// users, like any destructor.
  ~MpmcRing() STASH_MC_MAY_THROW {
    const std::uint64_t end = enqueue_pos_.load(std::memory_order_relaxed);
    for (std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
         pos != end; ++pos) {
      Cell* cell = &cells_[pos & mask_];
      if (cell->seq.load(std::memory_order_acquire) == pos + 1)
        cell->value.destroy();
    }
  }

  /// False when the ring is full — and then `value` is left untouched, so
  /// callers can retry or fall back without losing the payload.  Never
  /// blocks.
  template <typename U = T>
  bool try_push(U&& value) {
    Cell* cell;
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const std::int64_t dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        // Slot is free for exactly this position: claim it.  On failure
        // pos is refreshed by the CAS and we re-evaluate the new slot.
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return false;  // slot still holds an unconsumed element: full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value.emplace(std::forward<U>(value));
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Empty optional when the ring is empty.  Never blocks.
  std::optional<T> try_pop() {
    Cell* cell;
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const std::int64_t dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return std::nullopt;  // slot not yet published: empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    std::optional<T> out(cell->value.take());
    // Hand the slot to the producer one lap ahead.
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return out;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Approximate (racy) element count — monitoring and backpressure only.
  /// The head is loaded *first*: producers claimed at most `capacity_`
  /// ahead of the dequeue cursor when the head was read, and the tail only
  /// grows afterwards, so head − tail can shrink (clamped at 0 when pops
  /// overtake) but never exceed capacity.  The explicit clamp keeps the
  /// bound even if a future reordering reintroduces the overshoot — a
  /// backpressure signal must never report an over-full ring.
  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t head = enqueue_pos_.load(std::memory_order_relaxed);
    const std::uint64_t tail = dequeue_pos_.load(std::memory_order_relaxed);
    if (tail >= head) return 0;
    const std::uint64_t n = head - tail;
    return n > capacity_ ? capacity_ : static_cast<std::size_t>(n);
  }

 private:
  struct Cell {
    catomic<std::uint64_t> seq;
    slot<T> value;
  };

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  catomic<std::uint64_t> enqueue_pos_;
  catomic<std::uint64_t> dequeue_pos_;
};

STASH_CONCURRENCY_NS_END
