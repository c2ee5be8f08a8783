package cache

// IPStridePrefetcher implements the classic instruction-pointer stride
// prefetcher (Fu et al., MICRO'92) the paper attaches to the L1D. It tracks
// the last address and stride per program counter and, once a stride is
// confirmed twice, prefetches the next line. In the IMPACT threat model its
// job is to be a noise source: prefetches open DRAM rows the attacker did
// not ask for.
type IPStridePrefetcher struct {
	entries map[uint64]*strideEntry
	max     int
}

type strideEntry struct {
	lastAddr   uint64
	stride     int64
	confidence int
}

// NewIPStridePrefetcher returns a prefetcher with a bounded table.
func NewIPStridePrefetcher(maxEntries int) *IPStridePrefetcher {
	return &IPStridePrefetcher{entries: make(map[uint64]*strideEntry, maxEntries), max: maxEntries}
}

// Observe records a demand access and returns a prefetch address if the
// stride is confident.
func (p *IPStridePrefetcher) Observe(pc, addr uint64) (uint64, bool) {
	e, ok := p.entries[pc]
	if !ok {
		if len(p.entries) >= p.max {
			// Simple capacity management: drop the table. Real designs
			// use per-set replacement; the noise behaviour is equivalent.
			// Clearing in place keeps the map's storage.
			clear(p.entries)
		}
		p.entries[pc] = &strideEntry{lastAddr: addr}
		return 0, false
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.confidence < 3 {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 0
	}
	e.lastAddr = addr
	if e.confidence >= 2 {
		return uint64(int64(addr) + e.stride), true
	}
	return 0, false
}

// Reset empties the stride table, returning the prefetcher to its
// just-constructed state (table capacity is retained; no lookup depends on
// map iteration order, so reuse is behaviorally identical to a fresh table).
func (p *IPStridePrefetcher) Reset() {
	clear(p.entries)
}

// StreamerPrefetcher implements a simple next-line stream prefetcher
// (Chen & Baer) attached to the L2 in Table 2: when consecutive accesses
// walk forward within a page, it prefetches the next degree lines.
type StreamerPrefetcher struct {
	streams map[uint64]uint64 // page -> last line offset
	max     int
	degree  int
}

// NewStreamerPrefetcher returns a streamer with the given table size and
// prefetch degree.
func NewStreamerPrefetcher(maxStreams, degree int) *StreamerPrefetcher {
	return &StreamerPrefetcher{streams: make(map[uint64]uint64, maxStreams), max: maxStreams, degree: degree}
}

// Observe records a demand access and returns prefetch addresses, if any.
func (p *StreamerPrefetcher) Observe(addr uint64) []uint64 {
	const pageBits = 12
	const lineBits = 6
	page := addr >> pageBits
	lineOff := (addr >> lineBits) & ((1 << (pageBits - lineBits)) - 1)
	last, ok := p.streams[page]
	if len(p.streams) >= p.max && !ok {
		clear(p.streams)
	}
	p.streams[page] = lineOff
	if !ok || lineOff != last+1 {
		return nil
	}
	out := make([]uint64, 0, p.degree)
	for i := 1; i <= p.degree; i++ {
		next := lineOff + uint64(i)
		if next >= 1<<(pageBits-lineBits) {
			break
		}
		out = append(out, (page<<pageBits)|(next<<lineBits))
	}
	return out
}

// Reset empties the stream table, returning the streamer to its
// just-constructed state.
func (p *StreamerPrefetcher) Reset() {
	clear(p.streams)
}
