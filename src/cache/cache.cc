#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

/** The dirty-mask bit of LRU stack position @p pos. */
constexpr std::uint64_t
posBit(unsigned pos)
{
    return std::uint64_t{1} << pos;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : _config(config), _assoc(config.assoc)
{
    fatal_if(config.assoc == 0, "%s: associativity must be >= 1",
             config.name.c_str());
    fatal_if(config.assoc > 64,
             "%s: associativity %u exceeds the 64-way dirty mask",
             config.name.c_str(), config.assoc);
    fatal_if(config.sizeBytes % (config.assoc * kBlockSize) != 0,
             "%s: size must be a multiple of assoc * block size",
             config.name.c_str());
    _numSets = config.sizeBytes / (config.assoc * kBlockSize);
    fatal_if(!isPowerOfTwo(_numSets),
             "%s: number of sets (%llu) must be a power of two",
             config.name.c_str(),
             static_cast<unsigned long long>(_numSets));
    _tags.assign(_numSets * _assoc, kInvalidTag);
    _stamps.assign(_numSets * _assoc, 0);
    _dirtyMasks.assign(_numSets, 0);
    _eagerMasks.assign(_numSets, 0);
}

std::uint64_t
SetAssocCache::setIndex(LogicalAddr addr) const
{
    return blockNumber(addr) & (_numSets - 1);
}

unsigned
SetAssocCache::find(std::uint64_t index, LogicalAddr block) const
{
    const LogicalAddr *tags = &_tags[index * _assoc];
    for (unsigned pos = 0; pos < _assoc; ++pos) {
        if (tags[pos] == block)
            return pos;
    }
    return _assoc;
}

CacheAccessResult
SetAssocCache::access(LogicalAddr addr, bool isWrite, bool updateLru,
                      std::uint32_t stamp)
{
    const LogicalAddr block = blockAlign(addr);
    const std::uint64_t index = setIndex(addr);
    _lastWriteWastedEager = false;
    const unsigned pos = find(index, block);
    if (pos == _assoc)
        return {false, 0};

    const std::uint64_t base = index * _assoc;
    std::uint64_t &dirty = _dirtyMasks[index];
    std::uint64_t &eager = _eagerMasks[index];
    _stamps[base + pos] = stamp;
    if (isWrite) {
        if ((eager & posBit(pos)) != 0) {
            _lastWriteWastedEager = true;
            eager &= ~posBit(pos);
        }
        dirty |= posBit(pos);
    }
    if (updateLru && pos != 0) {
        // Rotate positions 0..pos down the stack by one; the hit line
        // becomes MRU. The masks rotate alike: for pos 63 the "above"
        // mask shifts out to 0, as it should.
        LogicalAddr *tags = &_tags[base];
        std::uint32_t *stamps = &_stamps[base];
        std::copy_backward(tags, tags + pos, tags + pos + 1);
        std::copy_backward(stamps, stamps + pos, stamps + pos + 1);
        tags[0] = block;
        stamps[0] = stamp;
        const std::uint64_t above = ~((posBit(pos) << 1) - 1);
        auto rotate = [&](std::uint64_t m) {
            return (m & above) | ((m & (posBit(pos) - 1)) << 1) |
                   ((m >> pos) & 1);
        };
        dirty = rotate(dirty);
        eager = rotate(eager);
    }
    return {true, pos};
}

bool
SetAssocCache::probe(LogicalAddr addr) const
{
    return find(setIndex(addr), blockAlign(addr)) != _assoc;
}

CacheVictim
SetAssocCache::insertAt(std::uint64_t index, LogicalAddr block,
                        bool dirty, std::uint32_t stamp)
{
    const std::uint64_t base = index * _assoc;
    const unsigned lru = _assoc - 1;
    std::uint64_t &dirty_mask = _dirtyMasks[index];
    std::uint64_t &eager_mask = _eagerMasks[index];

    CacheVictim victim;
    if (_tags[base + lru] != kInvalidTag) {
        victim.valid = true;
        victim.dirty = (dirty_mask & posBit(lru)) != 0;
        victim.blockAddr = _tags[base + lru];
    }

    // The LRU line leaves and every other line moves down one
    // position; the new line is MRU.
    LogicalAddr *tags = &_tags[base];
    std::uint32_t *stamps = &_stamps[base];
    std::copy_backward(tags, tags + lru, tags + _assoc);
    std::copy_backward(stamps, stamps + lru, stamps + _assoc);
    tags[0] = block;
    stamps[0] = stamp;
    dirty_mask = ((dirty_mask & ~posBit(lru)) << 1) |
                 static_cast<std::uint64_t>(dirty);
    eager_mask = (eager_mask & ~posBit(lru)) << 1;
    return victim;
}

CacheVictim
SetAssocCache::insert(LogicalAddr addr, bool dirty, std::uint32_t stamp)
{
    panic_if(probe(addr), "%s: inserting a line already present",
             _config.name.c_str());
    return insertAt(setIndex(addr), blockAlign(addr), dirty, stamp);
}

CacheFill
SetAssocCache::fill(LogicalAddr addr, bool dirty, std::uint32_t stamp)
{
    const LogicalAddr block = blockAlign(addr);
    const std::uint64_t index = setIndex(addr);
    if (find(index, block) != _assoc)
        return {};
    return {true, insertAt(index, block, dirty, stamp)};
}

bool
SetAssocCache::cleanLineForEagerWrite(LogicalAddr addr)
{
    const std::uint64_t index = setIndex(addr);
    const unsigned pos = find(index, blockAlign(addr));
    if (pos == _assoc || (_dirtyMasks[index] & posBit(pos)) == 0)
        return false;
    _dirtyMasks[index] &= ~posBit(pos);
    _eagerMasks[index] |= posBit(pos);
    return true;
}

std::vector<CacheLine>
SetAssocCache::set(std::uint64_t index) const
{
    panic_if(index >= _numSets, "set index out of range");
    std::vector<CacheLine> lines(_assoc);
    for (unsigned pos = 0; pos < _assoc; ++pos) {
        const LogicalAddr tag = blockAt(index, pos);
        if (tag == kInvalidTag)
            continue;
        CacheLine &line = lines[pos];
        line.blockAddr = tag;
        line.valid = true;
        line.dirty = (_dirtyMasks[index] & posBit(pos)) != 0;
        line.eagerCleaned = (_eagerMasks[index] & posBit(pos)) != 0;
        line.touchStamp = stampAt(index, pos);
    }
    return lines;
}

std::uint64_t
SetAssocCache::countDirtyLines() const
{
    std::uint64_t count = 0;
    for (std::uint64_t mask : _dirtyMasks)
        count += static_cast<std::uint64_t>(std::popcount(mask));
    return count;
}

} // namespace mellowsim
