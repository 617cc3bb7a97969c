package honeypot

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// The paper's deployment exports each honeypot's attacks daily and imports
// them into the analysis database (Section 3.3.2). This file implements
// that interchange as JSON Lines: one event per line, day-partitioned.

// eventJSON is the wire form of an Event. Payloads are base64 so arbitrary
// malware bytes survive the text encoding.
type eventJSON struct {
	Time     time.Time `json:"time"`
	Honeypot string    `json:"honeypot"`
	Protocol string    `json:"protocol"`
	Src      string    `json:"src"`
	Type     string    `json:"type"`
	Username string    `json:"username,omitempty"`
	Password string    `json:"password,omitempty"`
	Payload  string    `json:"payload,omitempty"`
	Detail   string    `json:"detail,omitempty"`
}

func toJSON(ev Event) eventJSON {
	j := eventJSON{
		Time:     ev.Time.UTC(),
		Honeypot: ev.Honeypot,
		Protocol: string(ev.Protocol),
		Src:      ev.Src.String(),
		Type:     string(ev.Type),
		Username: ev.Username,
		Password: ev.Password,
		Detail:   ev.Detail,
	}
	if len(ev.Payload) > 0 {
		j.Payload = base64.StdEncoding.EncodeToString(ev.Payload)
	}
	return j
}

func fromJSON(j eventJSON) (Event, error) {
	src, err := netsim.ParseIPv4(j.Src)
	if err != nil {
		return Event{}, fmt.Errorf("honeypot: bad src in export: %w", err)
	}
	ev := Event{
		Time:     j.Time,
		Honeypot: j.Honeypot,
		Protocol: iot.Protocol(j.Protocol),
		Src:      src,
		Type:     AttackType(j.Type),
		Username: j.Username,
		Password: j.Password,
		Detail:   j.Detail,
	}
	if j.Payload != "" {
		payload, err := base64.StdEncoding.DecodeString(j.Payload)
		if err != nil {
			return Event{}, fmt.Errorf("honeypot: bad payload in export: %w", err)
		}
		ev.Payload = payload
	}
	return ev, nil
}

// ExportJSONL writes events as JSON Lines.
func ExportJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(toJSON(ev)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ImportJSONL reads events back from a JSON Lines stream.
func ImportJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var j eventJSON
		if err := dec.Decode(&j); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		ev, err := fromJSON(j)
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

// PartitionByDay cuts time-ordered events, as Log.Drain returns them, into
// UTC-day runs keyed "2021-04-07", the daily export granularity of the
// paper's deployment: keys[i] names days[i], in day order. Each run is a
// subslice of events; nothing is copied.
func PartitionByDay(events []Event) (keys []string, days [][]Event) {
	start := 0
	for i := range events {
		key := events[i].Time.UTC().Format("2006-01-02")
		if i > 0 && key == keys[len(keys)-1] {
			continue
		}
		if i > 0 {
			days = append(days, events[start:i:i])
		}
		keys, start = append(keys, key), i
	}
	if len(events) > 0 {
		days = append(days, events[start:])
	}
	return keys, days
}
