// Package crashpoint provides named kill sites for crash-fault injection.
//
// A crashpoint is a place in a binary where a kill is interesting: right
// after a durable-state transition (a checkpoint committed, an artifact
// renamed into place, a day of generation finished). The crash harness arms
// exactly one site per child process through the environment and asserts
// that killing there and resuming yields outputs byte-identical to an
// uninterrupted run — the process-death analogue of the chaos gate's
// fault-model equivalence.
//
// Sites are compiled in unconditionally. Here is a single predictable branch
// on a package-level bool when nothing is armed, and every site sits at a
// per-segment or per-day commit — never inside a per-probe or per-flow hot
// path — so the hooks are free at benchmark resolution.
package crashpoint

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// EnvVar arms one site for the current process: "SITE" kills at the first
// execution of Here(SITE), "SITE@N" at the Nth.
const EnvVar = "OPENHIRE_CRASHPOINT"

// ExitCode is the distinct status an armed crashpoint exits with, so the
// harness can tell an injected kill from an ordinary failure.
const ExitCode = 87

var (
	enabled  bool
	armedRaw string
	armed    string
	armedHit int64
	hits     atomic.Int64
)

func init() {
	armFromEnv(os.Getenv(EnvVar))
}

// armFromEnv parses and installs a SITE[@N] spec; empty disarms.
func armFromEnv(spec string) {
	enabled, armed, armedRaw, armedHit = false, "", spec, 1
	hits.Store(0)
	if spec == "" {
		return
	}
	site := spec
	if i := strings.LastIndexByte(spec, '@'); i >= 0 {
		n, err := strconv.Atoi(spec[i+1:])
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "crashpoint: bad %s spec %q (want SITE or SITE@N)\n", EnvVar, spec)
			os.Exit(2)
		}
		site, armedHit = spec[:i], int64(n)
	}
	enabled, armed = true, site
}

// Here marks a named kill site. When the site is armed and this is its
// armed-for hit, the process exits immediately with ExitCode — no deferred
// cleanup runs, exactly like a SIGKILL landing between two instructions.
func Here(name string) {
	if !enabled || name != armed {
		return
	}
	if hits.Add(1) == armedHit {
		fmt.Fprintf(os.Stderr, "crashpoint: killed at %s (spec %s)\n", name, armedRaw)
		os.Exit(ExitCode)
	}
}

// Registered site names. Every durable-state transition in the five binaries
// has a site here; the crash harness sweeps these lists, so adding a site
// without extending the matching list means it is never exercised.
const (
	// SiteAtomicStaged fires inside the atomic-write helper after the temp
	// file is written and synced but before the rename — the torn-write
	// window every durable artifact passes through.
	SiteAtomicStaged = "atomic.staged"

	// SiteLogAppended fires in a batch leg's commit after the frame is
	// appended to the leg's log and fsynced, before the checkpoint that
	// records it is written: the resume must drop the frame.
	SiteLogAppended = "checkpoint.log.appended"

	SiteScanSegmentCommit   = "scan.segment.commit"
	SiteScanModuleDone      = "scan.module.done"
	SiteScanResultsWritten  = "scan.results.written"
	SiteScanTraceWritten    = "scan.trace.written"
	SiteScanManifestWritten = "scan.manifest.written"

	SiteTelescopeDayCommit       = "telescope.day.commit"
	SiteTelescopeFileWritten     = "telescope.file.written"
	SiteTelescopeTraceWritten    = "telescope.trace.written"
	SiteTelescopeManifestWritten = "telescope.manifest.written"

	SiteCampaignDayCommit       = "campaign.day.commit"
	SiteHoneypotExportWritten   = "honeypot.export.written"
	SiteHoneypotTraceWritten    = "honeypot.trace.written"
	SiteHoneypotManifestWritten = "honeypot.manifest.written"

	SiteReportExperimentCommit = "report.experiment.commit"
	SiteReportTraceWritten     = "report.trace.written"
	SiteReportManifestWritten  = "report.manifest.written"

	SiteServeCycleCommit       = "serve.cycle.commit"
	SiteServeHourFileWritten   = "serve.telescope.hour.written"
	SiteServeAggregatesWritten = "serve.aggregates.written"
	SiteServeTimeseriesWritten = "serve.timeseries.written"
	SiteServeManifestWritten   = "serve.manifest.written"
)

// ScanSites are the kill sites the scan leg passes through, in the order a
// run reaches them.
var ScanSites = []string{
	SiteAtomicStaged,
	SiteLogAppended,
	SiteScanSegmentCommit,
	SiteScanModuleDone,
	SiteScanResultsWritten,
	SiteScanTraceWritten,
	SiteScanManifestWritten,
}

// TelescopeSites are the telescope leg's kill sites.
var TelescopeSites = []string{
	SiteAtomicStaged,
	SiteTelescopeDayCommit,
	SiteTelescopeFileWritten,
	SiteTelescopeTraceWritten,
	SiteTelescopeManifestWritten,
}

// HoneypotSites are the honeypot/attack leg's kill sites.
var HoneypotSites = []string{
	SiteAtomicStaged,
	SiteLogAppended,
	SiteCampaignDayCommit,
	SiteHoneypotExportWritten,
	SiteHoneypotTraceWritten,
	SiteHoneypotManifestWritten,
}

// ReportSites are the experiment-suite binary's kill sites.
var ReportSites = []string{
	SiteAtomicStaged,
	SiteLogAppended,
	SiteReportExperimentCommit,
	SiteReportTraceWritten,
	SiteReportManifestWritten,
}

// ServeSites are the continuous-measurement daemon's kill sites.
var ServeSites = []string{
	SiteAtomicStaged,
	SiteServeHourFileWritten,
	SiteServeCycleCommit,
	SiteServeAggregatesWritten,
	SiteServeTimeseriesWritten,
	SiteServeManifestWritten,
}
