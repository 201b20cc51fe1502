#include "cache/cache.hh"

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

SetAssocCache::SetAssocCache(const CacheConfig &config) : _config(config)
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
    _sets.assign(_numSets, std::vector<CacheLine>(config.assoc));
    _dirtyMasks.assign(_numSets, 0);
}

std::uint64_t
SetAssocCache::setIndex(LogicalAddr addr) const
{
    return blockNumber(addr) & (_numSets - 1);
}

CacheAccessResult
SetAssocCache::access(LogicalAddr addr, bool isWrite, bool updateLru,
                      std::uint32_t stamp)
{
    LogicalAddr block = blockAlign(addr);
    const std::uint64_t index = setIndex(addr);
    auto &set = _sets[index];
    std::uint64_t &mask = _dirtyMasks[index];
    _lastWriteWastedEager = false;

    for (unsigned pos = 0; pos < set.size(); ++pos) {
        CacheLine &line = set[pos];
        if (!line.valid || line.blockAddr != block)
            continue;
        line.touchStamp = stamp;
        if (isWrite) {
            if (line.eagerCleaned) {
                _lastWriteWastedEager = true;
                line.eagerCleaned = false;
            }
            line.dirty = true;
            mask |= posBit(pos);
        }
        if (updateLru && pos != 0) {
            CacheLine moved = line;
            set.erase(set.begin() + pos);
            set.insert(set.begin(), moved);
            // Same rotation on the mask: positions 0..pos-1 move down
            // the stack by one, position pos becomes MRU. For pos 63
            // the "above" mask shifts out to 0, as it should.
            const std::uint64_t above = ~((posBit(pos) << 1) - 1);
            mask = (mask & above) | ((mask & (posBit(pos) - 1)) << 1) |
                   ((mask >> pos) & 1);
        }
        return {true, pos};
    }
    return {false, 0};
}

bool
SetAssocCache::probe(LogicalAddr addr) const
{
    LogicalAddr block = blockAlign(addr);
    const auto &set = _sets[setIndex(addr)];
    for (const CacheLine &line : set) {
        if (line.valid && line.blockAddr == block)
            return true;
    }
    return false;
}

CacheVictim
SetAssocCache::insert(LogicalAddr addr, bool dirty, std::uint32_t stamp)
{
    LogicalAddr block = blockAlign(addr);
    const std::uint64_t index = setIndex(addr);
    auto &set = _sets[index];
    panic_if(probe(addr), "%s: inserting a line already present",
             _config.name.c_str());

    CacheVictim victim;
    const CacheLine &lru = set.back();
    if (lru.valid) {
        victim.valid = true;
        victim.dirty = lru.dirty;
        victim.blockAddr = lru.blockAddr;
    }
    set.pop_back();

    CacheLine line;
    line.blockAddr = block;
    line.valid = true;
    line.dirty = dirty;
    line.touchStamp = stamp;
    set.insert(set.begin(), line);
    // The LRU line left and every other line moved down one position.
    std::uint64_t &mask = _dirtyMasks[index];
    mask = ((mask & ~posBit(_config.assoc - 1)) << 1) |
           static_cast<std::uint64_t>(dirty);
    return victim;
}

bool
SetAssocCache::cleanLineForEagerWrite(LogicalAddr addr)
{
    LogicalAddr block = blockAlign(addr);
    const std::uint64_t index = setIndex(addr);
    auto &set = _sets[index];
    for (unsigned pos = 0; pos < set.size(); ++pos) {
        CacheLine &line = set[pos];
        if (line.valid && line.blockAddr == block) {
            if (!line.dirty)
                return false;
            line.dirty = false;
            line.eagerCleaned = true;
            _dirtyMasks[index] &= ~posBit(pos);
            return true;
        }
    }
    return false;
}

const std::vector<CacheLine> &
SetAssocCache::set(std::uint64_t index) const
{
    panic_if(index >= _numSets, "set index out of range");
    return _sets[index];
}

std::uint64_t
SetAssocCache::countDirtyLines() const
{
    std::uint64_t count = 0;
    for (const auto &set : _sets) {
        for (const CacheLine &line : set) {
            if (line.valid && line.dirty)
                ++count;
        }
    }
    return count;
}

} // namespace mellowsim
