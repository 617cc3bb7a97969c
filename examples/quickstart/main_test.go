package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"openhire/internal/iot"
)

// TestQuickstartRuns runs the tour end to end: one count line per scanned
// protocol, then sample findings, at least one of which names its device
// model.
func TestQuickstartRuns(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, proto := range iot.ScannedProtocols {
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(string(proto)) +
			` +exposed=\d+ +misconfigured=\d+ +honeypots=\d+$`)
		if !line.MatchString(text) {
			t.Errorf("no count line for %s in:\n%s", proto, text)
		}
	}
	_, samples, ok := strings.Cut(text, "\nsample findings:\n")
	if !ok {
		t.Fatalf("no sample findings section in:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(samples), "\n")
	if len(lines) == 0 || !strings.Contains(lines[0], "evidence: ") {
		t.Fatalf("no sample finding in:\n%s", text)
	}
	typed := 0
	for _, l := range lines {
		if !strings.Contains(l, "(untyped)") {
			typed++
		}
	}
	if typed == 0 {
		t.Errorf("no sample finding shows a device model:\n%s", samples)
	}
}
