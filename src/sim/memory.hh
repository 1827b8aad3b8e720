/**
 * @file
 * Behavioral three-valued memory.
 *
 * Program and data memory are RAM macros, not standard cells, both in
 * the paper's placed-and-routed openMSP430 and here. The Memory class
 * stores 16-bit words with a per-bit X mask. Algorithm 1 line 2
 * ("initialize all memory cells ... to X") corresponds to reset():
 * everything not loaded from the binary reads back X.
 *
 * The address space follows the MSP430 convention used by src/msp:
 * peripherals live below 0x0200 (handled by the system, not by Memory),
 * RAM at [ramBase, ramBase + ramSize), ROM (program + interrupt vectors)
 * at [romBase, 0x10000). Word-aligned access only: the ULP core performs
 * word operations (byte mode is out of scope, see DESIGN.md).
 *
 * RAM is held as shared copy-on-write pages of kPageWords words (a
 * value plane and an X plane each), and the ROM image as one shared
 * block, so copying a Memory, snapshot() and restore() are pointer
 * copies: the execution-tree forks and the 64 packed-lane memories
 * share every page none of them has written. A write clones the page
 * it touches only while that page is shared, and a write that leaves
 * the word unchanged clones nothing. Page references are counted
 * atomically, so copies may live on different threads; loadRom is a
 * setup-time call and must not race with other copies of its ROM.
 */

#ifndef ULPEAK_SIM_MEMORY_HH
#define ULPEAK_SIM_MEMORY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "logic/v4.hh"

namespace ulpeak {

class Memory {
  public:
    /** Words per copy-on-write RAM page. */
    static constexpr uint32_t kPageWords = 64;

  private:
    struct Page {
        std::atomic<uint32_t> refs{1};
        std::array<uint16_t, kPageWords> val;
        std::array<uint16_t, kPageWords> x;
    };

    /** A counted reference to a shared page. The count is acquired on
     *  the uniqueness test, so a page another thread read before
     *  dropping its reference is never written under it. */
    class PageRef {
      public:
        PageRef() = default;
        explicit PageRef(Page *p) : p_(p) {}
        PageRef(const PageRef &o) : p_(o.p_)
        {
            if (p_)
                p_->refs.fetch_add(1, std::memory_order_relaxed);
        }
        PageRef(PageRef &&o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
        PageRef &
        operator=(PageRef o) noexcept
        {
            std::swap(p_, o.p_);
            return *this;
        }
        ~PageRef()
        {
            if (p_ && p_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
                delete p_;
        }
        const Page &operator*() const { return *p_; }
        const Page *operator->() const { return p_; }
        /** The page for writing, cloned first while it is shared. */
        Page &mut();

      private:
        Page *p_ = nullptr;
    };

  public:
    Memory(uint32_t ram_base, uint32_t ram_size, uint32_t rom_base);

    /** Set all RAM bits to X; ROM keeps its loaded image. */
    void reset();

    /** Load a concrete image (e.g. the application binary) into ROM. */
    void loadRom(uint32_t addr, const std::vector<uint16_t> &words);
    /** Load concrete words into RAM (e.g. initialized data). */
    void loadRam(uint32_t addr, const std::vector<uint16_t> &words);

    /**
     * Read the word containing @p addr (bit 0 ignored). Unmapped
     * addresses read all-X, like floating bus lines.
     */
    Word16 read(uint32_t addr) const;

    /** Write a word; ROM and unmapped writes are ignored. */
    void write(uint32_t addr, Word16 w);

    /** Store a fully-X word at a RAM address (marks an input buffer). */
    void poisonRam(uint32_t addr, uint32_t words);

    /**
     * Flip one stored RAM bit (a single-event upset in the RAM macro).
     * No-op returning false when @p addr is outside RAM or the bit is
     * X -- an upset of a bit with no defined value has no defined
     * effect, and the three-valued model already covers it.
     */
    bool flipBit(uint32_t addr, unsigned bit);

    bool
    inRam(uint32_t addr) const
    {
        return addr >= ramBase_ && addr < ramBase_ + ramSize_;
    }
    bool
    inRom(uint32_t addr) const
    {
        return addr >= romBase_ && addr < 0x10000;
    }

    uint32_t ramBase() const { return ramBase_; }
    uint32_t ramSize() const { return ramSize_; }
    uint32_t romBase() const { return romBase_; }

    /** Whether this memory and @p o hold the RAM page of @p addr (or,
     *  for a ROM address, the ROM image) as one shared copy: the
     *  observable side of copy-on-write. */
    bool shares(const Memory &o, uint32_t addr) const;

    /** Mix the RAM contents into @p h (FNV-1a) for state dedup. */
    void hashInto(uint64_t &h) const;

    /// @name Snapshot / restore for execution-tree forking
    /// Both share the RAM pages (O(pages) pointer copies).
    /// @{
    struct Snapshot {
        std::vector<PageRef> ram;
    };
    Snapshot snapshot() const { return Snapshot{ram_}; }
    void restore(const Snapshot &s) { ram_ = s.ram; }
    /// @}

  private:
    /** The page holding RAM word @p i, and @p i's offset in it. */
    std::pair<size_t, size_t>
    locate(uint32_t addr) const
    {
        size_t i = (addr - ramBase_) / 2;
        return {i / kPageWords, i % kPageWords};
    }
    /** Store (@p val, @p x) at RAM address @p addr. */
    void store(uint32_t addr, uint16_t val, uint16_t x);

    uint32_t ramBase_, ramSize_, romBase_;
    std::vector<PageRef> ram_;
    std::shared_ptr<std::vector<uint16_t>> rom_;
};

} // namespace ulpeak

#endif // ULPEAK_SIM_MEMORY_HH
