package scan

import (
	"context"
	"sort"
	"sync"

	"openhire/internal/netsim"
)

// Vantage is one scanning location in a distributed scan: its own source
// address and optionally its own blocklist (regional compliance differs per
// vantage, the situation the paper cites from Wan et al. as motivation for
// geographically distributed scanners, Section 6).
type Vantage struct {
	Source    netsim.IPv4
	Blocklist *netsim.PrefixSet
}

// DistributedConfig configures a multi-vantage scan.
type DistributedConfig struct {
	Network  *netsim.Network
	Prefix   netsim.Prefix
	Seed     uint64
	Vantages []Vantage
	// WorkersPerVantage bounds each vantage's concurrency (0 = 32).
	WorkersPerVantage int
}

// DistributedResult aggregates a distributed scan.
type DistributedResult struct {
	// Results is the merged result set, sorted by (IP, Port). The shards
	// partition one permutation, so no address appears twice.
	Results []*Result
	// PerVantage counts responsive hosts found by each vantage.
	PerVantage []int
	// Stats aggregates probe counts across vantages.
	Stats Stats
}

// RunDistributed shards the permutation across the vantages (ZMap's shard
// mechanism): one Scanner.Run per vantage, each with its own source and
// blocklist, run concurrently and merged. Every address is probed by exactly
// one vantage, so the union equals a single-scanner sweep while wall-clock
// divides by the vantage count. When ctx is canceled the result is the union
// of what each vantage had gathered.
func RunDistributed(ctx context.Context, cfg DistributedConfig, module ProbeModule) DistributedResult {
	if len(cfg.Vantages) == 0 {
		return DistributedResult{}
	}
	if cfg.WorkersPerVantage == 0 {
		cfg.WorkersPerVantage = 32
	}
	proto := module.Protocol()
	results := make([][]*Result, len(cfg.Vantages))
	stats := make([]Stats, len(cfg.Vantages))
	var wg sync.WaitGroup
	for i, v := range cfg.Vantages {
		i, v := i, v
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewScanner(Config{
				Network:   cfg.Network,
				Source:    v.Source,
				Prefix:    cfg.Prefix,
				Seed:      cfg.Seed, // same seed: shards partition one permutation
				Blocklist: v.Blocklist,
				Workers:   cfg.WorkersPerVantage,
				Shard:     i,
				Shards:    len(cfg.Vantages),
			})
			// Without a commit hook the only error is ctx's, and a canceled
			// vantage still contributes its partial results.
			rs, st, _ := s.Run(ctx, []ProbeModule{module}, nil, 0, nil)
			results[i], stats[i] = rs[proto], st[proto]
		}()
	}
	wg.Wait()

	out := DistributedResult{PerVantage: make([]int, len(cfg.Vantages))}
	for i, rs := range results {
		out.PerVantage[i] = len(rs)
		out.Results = append(out.Results, rs...)
		out.Stats.add(stats[i])
		if stats[i].Elapsed > out.Stats.Elapsed {
			out.Stats.Elapsed = stats[i].Elapsed // wall-clock = slowest vantage
		}
	}
	sortResults(out.Results)
	return out
}

// CoverageDelta compares two result sets and returns addresses only in a,
// only in b — the analysis a multi-vantage deployment runs to quantify
// location-dependent visibility.
func CoverageDelta(a, b []*Result) (onlyA, onlyB []netsim.IPv4) {
	inA := make(map[netsim.IPv4]bool)
	inB := make(map[netsim.IPv4]bool)
	for _, r := range a {
		inA[r.IP] = true
	}
	for _, r := range b {
		inB[r.IP] = true
	}
	for ip := range inA {
		if !inB[ip] {
			onlyA = append(onlyA, ip)
		}
	}
	for ip := range inB {
		if !inA[ip] {
			onlyB = append(onlyB, ip)
		}
	}
	sort.Slice(onlyA, func(i, j int) bool { return onlyA[i] < onlyA[j] })
	sort.Slice(onlyB, func(i, j int) bool { return onlyB[i] < onlyB[j] })
	return onlyA, onlyB
}
