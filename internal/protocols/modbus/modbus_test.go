package modbus

import (
	"strings"
	"testing"
	"time"

	"openhire/internal/netsim"
)

// startServer dials one session; events returns what the server has logged
// so far.
func startServer(t *testing.T, cfg Config) (*Server, *netsim.ServiceConn, func() []Event) {
	t.Helper()
	var events []Event
	prev := cfg.OnEvent
	cfg.OnEvent = func(ev Event) {
		if prev != nil {
			prev(ev)
		}
		events = append(events, ev)
	}
	srv := NewServer(cfg)
	client := netsim.Converse(srv.NewStepper(), netsim.MustParseIPv4("192.0.2.94"),
		netsim.Endpoint{IP: netsim.MustParseIPv4("10.0.0.9"), Port: 502}, time.Now())
	t.Cleanup(func() { client.Close() })
	return srv, client, func() []Event { return events }
}

func TestReadHoldingRegisters(t *testing.T) {
	srv, client, _ := startServer(t, Config{})
	srv.SetRegister(5, 1234)
	vals, err := ReadHolding(client, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 1234 || vals[1] != 0 {
		t.Fatalf("vals %v", vals)
	}
}

func TestWriteSinglePoisonsRegister(t *testing.T) {
	srv, client, events := startServer(t, Config{})
	srv.SetRegister(10, 100)
	if err := WriteSingle(client, 10, 666); err != nil {
		t.Fatal(err)
	}
	if v, ok := srv.Register(10); !ok || v != 666 {
		t.Fatalf("register = %d, %v", v, ok)
	}
	found := false
	for _, ev := range events() {
		if ev.Write && ev.Address == 10 && ev.Value == 666 {
			found = true
		}
	}
	if !found {
		t.Fatalf("write event missing: %+v", events())
	}
}

func TestIllegalAddressException(t *testing.T) {
	_, client, _ := startServer(t, Config{Registers: 16})
	if _, err := ReadHolding(client, 100, 4); err != ErrException {
		t.Fatalf("err = %v, want ErrException", err)
	}
	if err := WriteSingle(client, 200, 1); err != ErrException {
		t.Fatalf("write err = %v", err)
	}
}

func TestInvalidFunctionCodeLogged(t *testing.T) {
	_, client, events := startServer(t, Config{})
	// Function 0x63 is not implemented: the "90% invalid function codes"
	// behaviour from Section 5.1.4.
	if _, err := client.Write(BuildRequest(9, 1, 0x63, []byte{0, 0})); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events() {
		if ev.Function == 0x63 && !ev.Valid {
			return
		}
	}
	t.Fatalf("invalid function not logged: %+v", events())
}

func TestReportServerID(t *testing.T) {
	_, client, _ := startServer(t, Config{ServerID: "Siemens SIMATIC S7-200"})
	if _, err := client.Write(BuildRequest(2, 1, FuncReportServerID, nil)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "SIMATIC") {
		t.Fatalf("response %q", buf[:n])
	}
}

func TestMalformedADURejected(t *testing.T) {
	_, client, _ := startServer(t, Config{})
	// Protocol ID != 0.
	if _, err := client.Write([]byte{0, 1, 0, 9, 0, 2, 1, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _ := client.Read(buf); n != 0 {
		t.Fatalf("got %d response bytes for malformed ADU", n)
	}
}
