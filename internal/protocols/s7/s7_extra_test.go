package s7

import (
	"testing"
)

func TestWriteJobClassified(t *testing.T) {
	client, events := startServer(t, Config{})
	if err := Connect(client); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(BuildJob(FuncWrite)); err != nil {
		t.Fatal(err)
	}
	// Drain the ack so the server has processed the job.
	buf := make([]byte, 256)
	if _, err := client.Read(buf); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range events() {
		if ev.PDUType == PDUJob && ev.Function == FuncWrite {
			found = true
		}
	}
	if !found {
		t.Fatalf("write job not logged: %+v", events())
	}
}

func TestMalformedTPKTDropsSession(t *testing.T) {
	client, _ := startServer(t, Config{})
	// Wrong TPKT version byte.
	if _, err := client.Write([]byte{9, 0, 0, 8, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _ := client.Read(buf); n != 0 {
		t.Fatalf("malformed TPKT answered with %d bytes", n)
	}
}

func TestDefaultConfig(t *testing.T) {
	s := NewServer(Config{})
	if s.cfg.Module == "" || s.cfg.MaxJobs == 0 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}
