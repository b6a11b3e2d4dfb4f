/**
 * @file
 * Open-addressed hash map for address-keyed hot-path side tables.
 *
 * The engines keep small per-run side tables keyed by block address
 * (the timing engine's in-flight fills, LT-cords' outstanding
 * predictions). `std::unordered_map` puts every probe behind a
 * bucket-pointer chase and every insert behind a node allocation —
 * both on the per-reference hot path. This table is the open-addressed
 * replacement: one flat array of (key, value) slots, linear probing,
 * power-of-two capacity, backward-shift deletion (no tombstones), so
 * the common probe is one indexed load and the steady state allocates
 * nothing.
 *
 * Keys are `Addr` with `invalidAddr` reserved as the empty-slot
 * sentinel (block-aligned addresses can never equal it). A probe of an
 * empty table is a single masked load — cheap by construction, so
 * callers need no `empty()` fast-path guards. `AddrMap<NoValue>` is an
 * address set: the empty value takes no room, so its slots are the
 * 8-byte keys alone (the trace engine's eviction marks).
 */

#ifndef LTC_UTIL_FLAT_MAP_HH
#define LTC_UTIL_FLAT_MAP_HH

#include <cstdint>
#include <vector>

#include "util/check.hh"
#include "util/hash.hh"
#include "util/types.hh"

namespace ltc
{

/** Value type of an AddrMap used as a set (see the file comment). */
struct NoValue
{
};

/**
 * Open-addressed Addr -> V map (see the file comment).
 *
 * @tparam V Mapped type; must be trivially copyable (slots move
 *         during backward-shift deletion and rehash).
 */
template <typename V>
class AddrMap
{
  public:
    AddrMap() { reset(kMinCapacity); }

    // LTC_HOT_BEGIN: tools/ltc_lint.py bans hash maps, the modulo
    // operator and virtual declarations between these markers.

    /** Value for @p key, or nullptr. One load when the key is absent
     *  and its home slot is empty (the common case on empty tables). */
    V *
    find(Addr key)
    {
        std::size_t i = slotOf(key);
        while (true) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == invalidAddr)
                return nullptr;
            i = (i + 1) & mask_;
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<AddrMap *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** Insert @p key -> @p value, overwriting any existing mapping. */
    void
    insert(Addr key, const V &value = V{})
    {
        std::size_t i = slotOf(key);
        while (true) {
            Slot &s = slots_[i];
            if (s.key == key) {
                s.value = value;
                return;
            }
            if (s.key == invalidAddr) {
                s.key = key;
                s.value = value;
                size_++;
                if (size_ + (size_ >> 1) > mask_)
                    grow();
                return;
            }
            i = (i + 1) & mask_;
        }
    }

    /** Remove @p key; returns whether it was present. */
    bool
    erase(Addr key)
    {
        std::size_t i = slotOf(key);
        while (true) {
            Slot &s = slots_[i];
            if (s.key == invalidAddr)
                return false;
            if (s.key == key)
                break;
            i = (i + 1) & mask_;
        }
        shiftOut(i);
        size_--;
        return true;
    }

    // LTC_HOT_END

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Bytes per slot: the key, plus the value unless it is empty. */
    static constexpr std::size_t slotBytes() { return sizeof(Slot); }

    /** Drop every entry (capacity is kept). */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.key = invalidAddr;
        size_ = 0;
    }

    /**
     * Remove every entry for which @p pred(key, value) holds. O(n)
     * walk; used for deterministic stale-entry purges at growth
     * thresholds, not on the per-reference path.
     */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        // Backward-shift deletion invalidates a forward walk, so
        // rebuild instead: same capacity, surviving entries rehash
        // into canonical probe order.
        std::vector<Slot> old = std::move(slots_);
        reset(old.size());
        for (const Slot &s : old) {
            if (s.key == invalidAddr || pred(s.key, s.value))
                continue;
            insert(s.key, s.value);
        }
    }

    /** Visit every (key, value) pair (unspecified order). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Slot &s : slots_) {
            if (s.key != invalidAddr)
                fn(s.key, s.value);
        }
    }

    /**
     * LTC_CHECK the open-addressing representation: slot count is a
     * power of two, the live count matches the occupied slots, no key
     * is duplicated, and every entry is reachable from its home slot
     * without crossing an empty slot (the linear-probe invariant that
     * backward-shift deletion must preserve). Cold path.
     */
    void
    auditInvariants() const
    {
        LTC_CHECK((slots_.size() & (slots_.size() - 1)) == 0,
                  "slot count not a power of two: ", slots_.size());
        std::size_t live = 0;
        for (std::size_t i = 0; i < slots_.size(); i++) {
            const Slot &s = slots_[i];
            if (s.key == invalidAddr)
                continue;
            live++;
            // Reachability: walk from the home slot to i; every slot
            // on the way must be occupied.
            std::size_t j = slotOf(s.key);
            while (j != i) {
                LTC_CHECK(slots_[j].key != invalidAddr,
                          "entry for key ", s.key, " in slot ", i,
                          " unreachable: empty slot ", j,
                          " on its probe path");
                LTC_CHECK(slots_[j].key != s.key, "key ", s.key,
                          " present in slots ", j, " and ", i);
                j = (j + 1) & mask_;
            }
        }
        LTC_CHECK(live == size_, "size ", size_, " but ", live,
                  " occupied slots");
    }

  private:
    struct Slot
    {
        Addr key = invalidAddr;
        [[no_unique_address]] V value{};
    };

    static constexpr std::size_t kMinCapacity = 16;

    std::size_t slotOf(Addr key) const { return mix64(key) & mask_; }

    void
    reset(std::size_t capacity)
    {
        slots_.assign(capacity, Slot{});
        mask_ = capacity - 1;
        size_ = 0;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        reset(old.size() * 2);
        for (const Slot &s : old) {
            if (s.key != invalidAddr)
                insert(s.key, s.value);
        }
    }

    /** Backward-shift deletion starting at occupied slot @p i. */
    void
    shiftOut(std::size_t i)
    {
        std::size_t hole = i;
        std::size_t j = (i + 1) & mask_;
        while (slots_[j].key != invalidAddr) {
            // An entry may move back only if its home slot does not
            // lie strictly between the hole and its current slot
            // (cyclically) — otherwise the move would break its own
            // probe chain.
            const std::size_t home = slotOf(slots_[j].key);
            const bool movable = ((j - home) & mask_) >=
                ((j - hole) & mask_);
            if (movable) {
                slots_[hole] = slots_[j];
                hole = j;
            }
            j = (j + 1) & mask_;
        }
        slots_[hole].key = invalidAddr;
        slots_[hole].value = V{};
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace ltc

#endif // LTC_UTIL_FLAT_MAP_HH
