package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"openhire/internal/checkpoint"
	"openhire/internal/core/report"
	"openhire/internal/serve"
)

// inspectCheckpoint prints a serve.ckpt's decoded state as indented JSON,
// then the file's header and the payload's bytes per member.
func inspectCheckpoint(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := checkpoint.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if f.Leg != "serve" {
		return fmt.Errorf("%s: checkpoint leg %q; checkpoint reads the serve leg's serve.ckpt", path, f.Leg)
	}
	st, members, err := serve.DecodeCheckpoint(f.Payload)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n\n", out)
	fmt.Fprintf(w, "checkpoint %s: leg %s, seed %d, version %d, %s (payload %s)\n",
		path, f.Leg, f.Seed, checkpoint.VersionBinary, fmtBytes(int64(len(data))), fmtBytes(int64(len(f.Payload))))
	t := report.NewTable("\nPayload bytes by member", "Member", "Bytes", "Share")
	for _, m := range members {
		t.AddRow(m.Name, report.Comma(m.Bytes), fmt.Sprintf("%.1f%%", 100*float64(m.Bytes)/float64(max(len(f.Payload), 1))))
	}
	return t.Render(w)
}
