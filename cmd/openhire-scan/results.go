package main

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"openhire/internal/core/scan"
	"openhire/internal/iot"
	"openhire/internal/netsim"
)

// record is one line of the -out/-in result file (JSON Lines). Banner and
// Response are base64: raw banners carry Telnet IAC bytes that are not valid
// UTF-8.
type record struct {
	Time     time.Time         `json:"time"`
	IP       string            `json:"ip"`
	Port     uint16            `json:"port"`
	Protocol string            `json:"protocol"`
	UDP      bool              `json:"udp,omitempty"`
	Banner   string            `json:"banner,omitempty"`
	Response string            `json:"response,omitempty"`
	Meta     map[string]string `json:"meta,omitempty"`
}

// writeResults encodes results one record a line, protocols in sorted order
// (map order would vary the file run to run) and each protocol's results in
// the order given, and returns the record count.
func writeResults(w io.Writer, results map[iot.Protocol][]*scan.Result) (n int, err error) {
	protos := make([]iot.Protocol, 0, len(results))
	for p := range results {
		protos = append(protos, p)
	}
	slices.Sort(protos)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, p := range protos {
		for _, r := range results[p] {
			rec := record{
				Time: r.Time.UTC(), IP: r.IP.String(), Port: r.Port,
				Protocol: string(r.Protocol), UDP: r.Transport == netsim.UDP,
				Meta: r.Meta,
			}
			if len(r.Banner) > 0 {
				rec.Banner = base64.StdEncoding.EncodeToString(r.Banner)
			}
			if len(r.Response) > 0 {
				rec.Response = base64.StdEncoding.EncodeToString(r.Response)
			}
			if err := enc.Encode(rec); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, bw.Flush()
}

// readResults decodes a result file into per-protocol slices in file order,
// returning the record count.
func readResults(r io.Reader) (map[iot.Protocol][]*scan.Result, int, error) {
	results := make(map[iot.Protocol][]*scan.Result)
	dec := json.NewDecoder(r)
	for n := 0; ; n++ {
		var rec record
		if err := dec.Decode(&rec); err == io.EOF {
			return results, n, nil
		} else if err != nil {
			return nil, n, err
		}
		ip, err := netsim.ParseIPv4(rec.IP)
		if err != nil {
			return nil, n, fmt.Errorf("results: bad ip: %w", err)
		}
		res := &scan.Result{
			Time: rec.Time, IP: ip, Port: rec.Port,
			Protocol: iot.Protocol(rec.Protocol), Meta: rec.Meta,
		}
		if rec.UDP {
			res.Transport = netsim.UDP
		}
		if rec.Banner != "" {
			if res.Banner, err = base64.StdEncoding.DecodeString(rec.Banner); err != nil {
				return nil, n, fmt.Errorf("results: bad banner: %w", err)
			}
		}
		if rec.Response != "" {
			if res.Response, err = base64.StdEncoding.DecodeString(rec.Response); err != nil {
				return nil, n, fmt.Errorf("results: bad response: %w", err)
			}
		}
		results[res.Protocol] = append(results[res.Protocol], res)
	}
}
