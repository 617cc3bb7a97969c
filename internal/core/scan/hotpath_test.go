package scan

import (
	"testing"

	"openhire/internal/netsim"
)

// TestBlocklistDisjointFastPath ensures dropping the blocklist for
// disjoint prefixes does not change coverage, and that overlapping
// blocklists still exclude.
func TestBlocklistDisjointFastPath(t *testing.T) {
	prefix := netsim.MustParsePrefix("50.0.0.0/24")
	bl := netsim.NewPrefixSet(netsim.MustParsePrefix("192.168.0.0/16"))
	it := NewAddressIterator(prefix, 3, bl)
	count := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		count++
	}
	if count != 256 {
		t.Fatalf("disjoint blocklist: visited %d addresses, want 256", count)
	}

	bl.Add(netsim.MustParsePrefix("50.0.0.128/25"))
	it = NewAddressIterator(prefix, 3, bl)
	count = 0
	for {
		ip, ok := it.Next()
		if !ok {
			break
		}
		if uint32(ip)&0x80 == 0x80 && uint32(ip)>>8 == uint32(netsim.MustParseIPv4("50.0.0.0"))>>8 {
			t.Fatalf("blocklisted address %v visited", ip)
		}
		count++
	}
	if count != 128 {
		t.Fatalf("overlapping blocklist: visited %d addresses, want 128", count)
	}
}
