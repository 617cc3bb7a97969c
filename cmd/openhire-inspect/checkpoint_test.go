package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"openhire/internal/attack"
	"openhire/internal/checkpoint"
	"openhire/internal/core/correlate"
	"openhire/internal/core/scan"
	"openhire/internal/netsim"
	"openhire/internal/obs"
	"openhire/internal/obs/tsdb"
	"openhire/internal/serve"
)

// goldenCheckpointState is a small serve checkpoint with every member
// present: a month in progress, a sweep paused in its second module, one
// day's trend row, one address per correlation set, a one-series tsdb, one
// hour file and one earlier commit record.
func goldenCheckpointState() *serve.Checkpoint {
	db := tsdb.New(tsdb.Options{RawCapacity: 4, RollupEvery: 30})
	db.Append(0, "serve.trend.attack_events", nil, 12)
	return &serve.Checkpoint{
		Cycle:    1,
		Campaign: &attack.CampaignResume{NextDay: 1, SrcState: 77, EventsPlanned: 12, EventsRun: 12},
		Scan: &scan.SegmentedState{
			Module:     1,
			Iterator:   scan.IteratorCursor{Perm: scan.PermutationCursor{Cur: 5}},
			TargetsFed: 320,
			Modules: []scan.ModuleSnapshot{
				{Protocol: "amqp", Stats: scan.Stats{Probed: 256, Responded: 3, Negatives: 253}},
				{Protocol: "xmpp", Stats: scan.Stats{Probed: 64, Negatives: 64}},
			},
		},
		Agg: &serve.Aggregates{
			Exposure: serve.ExposureState{Current: map[string]*serve.ProtocolExposure{
				"amqp": {Targets: 256, Responded: 3, Misconfigured: 1, ByClass: map[string]uint64{"no-auth": 1}},
			}},
			Trends: serve.TrendState{Days: []serve.DayTrend{{AttackEvents: 12,
				AttacksByType: map[string]int{"scan": 12}, AttackSources: 4, TelescopeFlows: 9, TelescopePackets: 30}}},
			Correlate: serve.CorrelateState{
				Misconfigured:    correlate.NewIPSet([]netsim.IPv4{1677721601}),
				HoneypotSources:  correlate.NewIPSet([]netsim.IPv4{1677721601}),
				TelescopeSources: correlate.NewIPSet([]netsim.IPv4{1677721602}),
			},
			TargetsFed: 320,
		},
		TSDB:           db.State(),
		TSDBDigest:     obs.Digest([]byte("tsdb")),
		TelescopeFiles: map[string]string{"day0000-hour00.ft": obs.Digest([]byte("hour"))},
		Checkpoints:    []obs.CheckpointRecord{{Name: "cycle0000", Bytes: 512, Digest: obs.Digest([]byte("c0"))}},
	}
}

const goldenCheckpoint = `{
  "cycle": 1,
  "campaign": {
    "next_day": 1,
    "src_state": 77,
    "events_planned": 12,
    "events_run": 12
  },
  "scan": {
    "module": 1,
    "iterator": {
      "perm": {
        "cur": 5,
        "done": false
      },
      "blocked": 0
    },
    "targets_fed": 320,
    "modules": [
      {
        "protocol": "amqp",
        "stats": {
          "Probed": 256,
          "Blocked": 0,
          "Responded": 3,
          "Timeouts": 0,
          "Resets": 0,
          "Partials": 0,
          "Negatives": 253,
          "Retransmits": 0,
          "BreakerSkipped": 0,
          "Elapsed": 0
        }
      },
      {
        "protocol": "xmpp",
        "stats": {
          "Probed": 64,
          "Blocked": 0,
          "Responded": 0,
          "Timeouts": 0,
          "Resets": 0,
          "Partials": 0,
          "Negatives": 64,
          "Retransmits": 0,
          "BreakerSkipped": 0,
          "Elapsed": 0
        }
      }
    ]
  },
  "agg": {
    "exposure": {
      "sweep": 0,
      "sweeps_complete": 0,
      "current": {
        "amqp": {
          "targets": 256,
          "responded": 3,
          "misconfigured": 1,
          "by_class": {
            "no-auth": 1
          }
        }
      }
    },
    "trends": {
      "days": [
        {
          "day": 0,
          "attack_events": 12,
          "attacks_by_type": {
            "scan": 12
          },
          "attack_sources": 4,
          "telescope_flows": 9,
          "telescope_packets": 30
        }
      ]
    },
    "correlate": {
      "misconfigured": [
        1677721601
      ],
      "honeypot_sources": [
        1677721601
      ],
      "telescope_sources": [
        1677721602
      ]
    },
    "targets_fed": 320
  },
  "tsdb": {
    "raw_capacity": 4,
    "rollup_every": 30,
    "rollup_capacity": 360,
    "last_cycle": 0,
    "series": [
      {
        "name": "serve.trend.attack_events",
        "points": [
          {
            "c": 0,
            "v": 12
          }
        ],
        "active": {
          "start": 0,
          "count": 1,
          "sum": 12,
          "min": 12,
          "max": 12,
          "last": 12
        }
      }
    ]
  },
  "tsdb_digest": "sha256:894a5618f981bf6ddfc9677657b835f0e12988bfb8126ff1ca45c778dc5829e8",
  "telescope_files": {
    "day0000-hour00.ft": "sha256:9ac0add475dd38e6ab3a3fb5ab4579c886eb654f57764210a352fd62e9dd9706"
  },
  "checkpoints": [
    {
      "name": "cycle0000",
      "bytes": 512,
      "digest": "sha256:122c597083bd438b7f6d72af75d025948899647711b806bdd2cd82fa69713db3"
    }
  ]
}

checkpoint serve.ckpt: leg serve, seed 11, version 2, 346 B (payload 313 B)

Payload bytes by member
Member           Bytes  Share
---------------  -----  -----
cycle            1      0.3%
campaign         5      1.6%
scan             39     12.5%
agg              60     19.2%
tsdb             112    35.8%
telescope_files  51     16.3%
checkpoints      45     14.4%
`

// TestInspectCheckpointGolden pins what checkpoint prints for a fixed serve
// checkpoint — the decoded state and the bytes per member — so a payload or
// renderer change shows up as a test diff.
func TestInspectCheckpointGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	payload := goldenCheckpointState().AppendBinary(nil)
	if err := os.WriteFile(path, checkpoint.Encode(checkpoint.VersionBinary, "serve", 11, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := inspectCheckpoint(&out, path); err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(out.String(), path, "serve.ckpt")
	got = regexp.MustCompile(`(?m) +$`).ReplaceAllString(got, "")
	if got != goldenCheckpoint {
		t.Fatalf("checkpoint output diverged from golden:\n--- got\n%s--- want\n%s", got, goldenCheckpoint)
	}

	// A batch leg's JSON checkpoint is refused by name.
	if _, err := checkpoint.Save(filepath.Dir(path), "serve", "", 11, map[string]int{"cycle": 1}); err != nil {
		t.Fatal(err)
	}
	if err := inspectCheckpoint(&out, path); !errors.Is(err, checkpoint.ErrPayloadFormat) {
		t.Errorf("JSON serve.ckpt: err = %v, want checkpoint.ErrPayloadFormat", err)
	}
}

// TestReadStateFileFormats asserts timeline's file reader takes a binary
// serve-tsdb checkpoint and a bare -tsdb-out JSON state to the same state,
// and refuses a tsdb checkpoint with a JSON payload by name.
func TestReadStateFileFormats(t *testing.T) {
	dir := t.TempDir()
	st := goldenCheckpointState().TSDB
	ckpt := filepath.Join(dir, "serve-tsdb.ckpt")
	if err := os.WriteFile(ckpt, checkpoint.Encode(checkpoint.VersionBinary, "serve-tsdb", 11, st.AppendBinary(nil)), 0o644); err != nil {
		t.Fatal(err)
	}
	db := tsdb.New(tsdb.Options{RawCapacity: st.RawCapacity, RollupEvery: st.RollupEvery, RollupCapacity: st.RollupCapacity})
	if err := db.LoadState(st); err != nil {
		t.Fatal(err)
	}
	want, err := db.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(dir, "timeseries.json")
	if err := os.WriteFile(bare, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{ckpt, bare} {
		got, err := readStateFile(path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Errorf("%s: read %+v, want %+v", filepath.Base(path), got, st)
		}
	}
	if _, err := checkpoint.Save(dir, "serve-tsdb", "", 11, st); err != nil {
		t.Fatal(err)
	}
	if _, err := readStateFile(ckpt); !errors.Is(err, checkpoint.ErrPayloadFormat) {
		t.Errorf("JSON serve-tsdb.ckpt: err = %v, want checkpoint.ErrPayloadFormat", err)
	}
}
