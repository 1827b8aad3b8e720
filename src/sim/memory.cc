#include "sim/memory.hh"

#include <algorithm>
#include <cassert>

namespace ulpeak {

Memory::Page &
Memory::PageRef::mut()
{
    if (p_->refs.load(std::memory_order_acquire) != 1) {
        Page *copy = new Page;
        copy->val = p_->val;
        copy->x = p_->x;
        *this = PageRef(copy);
    }
    return *p_;
}

Memory::Memory(uint32_t ram_base, uint32_t ram_size, uint32_t rom_base)
    : ramBase_(ram_base), ramSize_(ram_size), romBase_(rom_base)
{
    assert(ram_base % 2 == 0 && ram_size % 2 == 0 && rom_base % 2 == 0);
    ram_.resize((ram_size / 2 + kPageWords - 1) / kPageWords);
    reset();
    rom_ = std::make_shared<std::vector<uint16_t>>(
        (0x10000 - rom_base) / 2, 0xffff);
}

void
Memory::reset()
{
    // Every page starts as the one shared all-X page.
    Page *x = new Page;
    x->val.fill(0);
    x->x.fill(0xffff);
    PageRef allX(x);
    for (PageRef &p : ram_)
        p = allX;
}

void
Memory::loadRom(uint32_t addr, const std::vector<uint16_t> &words)
{
    if (rom_.use_count() > 1)
        rom_ = std::make_shared<std::vector<uint16_t>>(*rom_);
    for (size_t i = 0; i < words.size(); ++i) {
        uint32_t a = addr + uint32_t(i) * 2;
        assert(inRom(a));
        (*rom_)[(a - romBase_) / 2] = words[i];
    }
}

void
Memory::store(uint32_t addr, uint16_t val, uint16_t x)
{
    auto [page, off] = locate(addr);
    const Page &cur = *ram_[page];
    if (cur.val[off] == val && cur.x[off] == x)
        return;
    Page &p = ram_[page].mut();
    p.val[off] = val;
    p.x[off] = x;
}

void
Memory::loadRam(uint32_t addr, const std::vector<uint16_t> &words)
{
    for (size_t i = 0; i < words.size(); ++i) {
        uint32_t a = addr + uint32_t(i) * 2;
        assert(inRam(a));
        store(a, words[i], 0);
    }
}

Word16
Memory::read(uint32_t addr) const
{
    addr &= 0xfffe;
    if (inRam(addr)) {
        auto [page, off] = locate(addr);
        const Page &p = *ram_[page];
        return Word16(p.val[off], p.x[off]);
    }
    if (inRom(addr))
        return Word16::known((*rom_)[(addr - romBase_) / 2]);
    return Word16::allX();
}

void
Memory::write(uint32_t addr, Word16 w)
{
    addr &= 0xfffe;
    if (inRam(addr))
        store(addr, w.value, w.xmask);
}

void
Memory::poisonRam(uint32_t addr, uint32_t words)
{
    for (uint32_t i = 0; i < words; ++i) {
        uint32_t a = (addr & 0xfffe) + i * 2;
        assert(inRam(a));
        store(a, 0, 0xffff);
    }
}

bool
Memory::flipBit(uint32_t addr, unsigned bit)
{
    addr &= 0xfffe;
    if (!inRam(addr) || bit >= 16)
        return false;
    auto [page, off] = locate(addr);
    uint16_t m = uint16_t(1u << bit);
    if (ram_[page]->x[off] & m)
        return false;
    ram_[page].mut().val[off] ^= m;
    return true;
}

bool
Memory::shares(const Memory &o, uint32_t addr) const
{
    addr &= 0xfffe;
    if (inRam(addr)) {
        size_t page = locate(addr).first;
        return &*ram_[page] == &*o.ram_[page];
    }
    return inRom(addr) && rom_ == o.rom_;
}

void
Memory::hashInto(uint64_t &h) const
{
    auto mix = [&h](uint16_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    // Word order, value before X: the layout-independent order dedup
    // keys were always built in.
    size_t words = ramSize_ / 2;
    for (size_t base = 0; base < words; base += kPageWords) {
        const Page &p = *ram_[base / kPageWords];
        size_t n = std::min<size_t>(kPageWords, words - base);
        for (size_t i = 0; i < n; ++i) {
            mix(p.val[i]);
            mix(p.x[i]);
        }
    }
}

} // namespace ulpeak
