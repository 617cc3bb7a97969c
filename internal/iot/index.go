package iot

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"openhire/internal/netsim"
	"openhire/internal/prng"
)

// Exposed is one entry of the exposure index: an address that answers at
// least one scanned protocol — a device exposing some, a wild honeypot, or
// both at once.
type Exposed struct {
	IP netsim.IPv4
	// Protocols is the device exposure at the address, read with Exposes:
	// bit i is set when it exposes ScannedProtocols[i]. The bits are rolled
	// whether or not a honeypot sits on top of the device.
	Protocols uint8
	// Honeypot is set when a wild honeypot shadows the address. The address
	// then answers Telnet on port 23 and nothing else, whatever Protocols says.
	Honeypot bool
}

// protocolBit returns p's bit in Exposed.Protocols, or 0 when p is not one
// of the six scanned protocols.
func protocolBit(p Protocol) uint8 {
	for i, sp := range ScannedProtocols {
		if sp == p {
			return 1 << i
		}
	}
	return 0
}

// Exposes reports whether the device rolled at the address exposes scanned
// protocol p: what Universe.Exposes(x.IP, p) reports.
func (x Exposed) Exposes(p Protocol) bool { return x.Protocols&protocolBit(p) != 0 }

// indexBuilds counts index builds in this process. It exists for the test
// that fences the daemon's code paths away from the index.
var indexBuilds atomic.Int64

// ExposedIndex returns every address of the prefix that exposes a scanned
// protocol or hosts a wild honeypot, in address order. It is the one
// enumeration of the universe the batch report's crawls share: built on first
// use by one parallel walk of the prefix (the exposure rolls Exposes makes,
// the planting roll WildHoneypot makes), then read-only — callers must not
// modify the returned slice. Nothing on the scan, attack or serve paths calls
// it: those ask about one address at a time and pay no walk.
func (u *Universe) ExposedIndex() []Exposed {
	u.indexOnce.Do(func() {
		indexBuilds.Add(1)
		u.index = u.buildIndex()
	})
	return u.index
}

// buildIndex walks the prefix in contiguous chunks, one per processor, and
// joins the chunks in address order. Every roll is a pure function of
// (seed, ip), so the worker count does not show in the result.
func (u *Universe) buildIndex() []Exposed {
	size := u.cfg.Prefix.Size()
	workers := uint64(runtime.GOMAXPROCS(0))
	if workers > size {
		workers = 1
	}
	chunk := (size + workers - 1) / workers
	parts := make([][]Exposed, workers)
	var wg sync.WaitGroup
	for w := uint64(0); w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, size)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi uint64) {
			defer wg.Done()
			parts[w] = u.indexRange(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return slices.Concat(parts...)
}

// indexRange derives the entries of prefix offsets [lo, hi). The scanned
// protocols are the leading rows of the exposure table, in ScannedProtocols
// order, so row i rolls bit i.
func (u *Universe) indexRange(lo, hi uint64) []Exposed {
	scanned := u.exposure[:len(ScannedProtocols)]
	var out []Exposed
	for i := lo; i < hi; i++ {
		ip := u.cfg.Prefix.Nth(i)
		x := Exposed{IP: ip, Honeypot: u.wildHoneypotAt(ip)}
		pre := u.exposurePrefix(ip)
		for b := range scanned {
			e := &scanned[b]
			if below(prng.Hash64From(pre, e.ph), e.density) {
				x.Protocols |= 1 << b
			}
		}
		if x.Protocols != 0 || x.Honeypot {
			out = append(out, x)
		}
	}
	return out
}
