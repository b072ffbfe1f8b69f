// A table keyed by DomainId and indexed by it, the way Xen indexes its
// domain list.
//
// Domids are handed out sequentially and never reused, so a dense vector
// of slots replaces a search tree: a lookup is a bounds check plus an
// index, and iteration runs in ascending domid order like the std::map it
// replaces. Entries are heap-held, so a reference to one stays valid while
// the table grows underneath it (a callback holding one domain's entry may
// insert another's). The hypervisor's domain table and the split-driver
// backends' per-guest tables use it (DESIGN.md "Indexed platform lookups").
#ifndef XOAR_SRC_BASE_DOMID_TABLE_H_
#define XOAR_SRC_BASE_DOMID_TABLE_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/ids.h"

namespace xoar {

template <typename T>
class DomidTable {
 public:
  // The entry for `id`, or nullptr. Never grows the table: Invalid() is
  // the largest domid, so the bounds check rejects it too.
  T* Find(DomainId id) {
    return id.value() < slots_.size() ? slots_[id.value()].get() : nullptr;
  }
  const T* Find(DomainId id) const {
    return id.value() < slots_.size() ? slots_[id.value()].get() : nullptr;
  }
  bool Contains(DomainId id) const { return Find(id) != nullptr; }

  // Stores `value` in `id`'s slot, which must be empty, and returns it.
  T& Insert(DomainId id, std::unique_ptr<T> value) {
    if (id.value() >= slots_.size()) {
      slots_.resize(static_cast<std::size_t>(id.value()) + 1);
    }
    slots_[id.value()] = std::move(value);
    return *slots_[id.value()];
  }

  // Destroys `id`'s entry; false if it had none. The slot stays allocated.
  bool Erase(DomainId id) {
    if (Find(id) == nullptr) {
      return false;
    }
    slots_[id.value()].reset();
    return true;
  }

  // Calls fn(DomainId, T&) for every entry, in ascending domid order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i] != nullptr) {
        fn(DomainId(static_cast<std::uint32_t>(i)), *slots_[i]);
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i] != nullptr) {
        fn(DomainId(static_cast<std::uint32_t>(i)),
           static_cast<const T&>(*slots_[i]));
      }
    }
  }

  // Slots allocated: one past the largest domid ever inserted. Tests read
  // it to show that lookups of unknown domids never grow the table.
  std::size_t slot_count() const { return slots_.size(); }

 private:
  std::vector<std::unique_ptr<T>> slots_;
};

}  // namespace xoar

#endif  // XOAR_SRC_BASE_DOMID_TABLE_H_
