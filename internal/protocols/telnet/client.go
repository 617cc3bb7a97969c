package telnet

import (
	"context"
	"io"

	"openhire/internal/netsim"
)

// Banner is the result of a passive Telnet banner grab: the negotiation
// bytes and the visible text the server volunteered before any input.
type Banner struct {
	// Raw is everything the server sent, negotiation included, exactly as
	// it appeared on the wire. Honeypot fingerprints match against Raw.
	Raw []byte
	// Text is Raw with IAC sequences stripped: the human-visible banner.
	Text string
	// Commands are the parsed negotiation commands the server issued.
	Commands []Command
}

// Grab performs the paper's Telnet probe over an established connection:
// read whatever the server volunteers, passively refuse every negotiation,
// and return the banner. It never authenticates (Section 2.1: "unlike
// Markowsky et al. we do not try to connect to the devices after the
// scanning process"). The banner is complete when it ends in a prompt or
// when the server has nothing more to say (a read error: ErrWouldBlock,
// EOF or a reset).
func Grab(ctx context.Context, conn io.ReadWriter) (Banner, error) {
	var raw []byte
	scratch := netsim.GetScratch()
	defer netsim.PutScratch(scratch)
	buf := *scratch
	for len(raw) < 64<<10 {
		if ctx.Err() != nil {
			break
		}
		n, err := conn.Read(buf)
		if n > 0 {
			raw = append(raw, buf[:n]...)
			// Answer negotiation so chatty servers progress to their banner.
			_, cmds := SplitStream(buf[:n])
			if reply := RefuseAll(cmds); len(reply) > 0 {
				if _, werr := conn.Write(reply); werr != nil {
					break
				}
			}
			// A banner ending in a login or shell prompt means the server is
			// waiting for input: the grab is complete. This is the dominant
			// case across the device population.
			if data, _ := SplitStream(raw); bannerComplete(data) {
				break
			}
			continue
		}
		if err != nil {
			break // nothing more now, EOF, or reset: the banner is whatever we got
		}
	}
	data, cmds := SplitStream(raw)
	b := Banner{Raw: raw, Text: string(data), Commands: cmds}
	if len(raw) == 0 {
		return b, io.ErrUnexpectedEOF
	}
	return b, nil
}

// bannerPrompts are the terminal strings after which a Telnet service waits
// for input. A grab that sees one returns without another read; banners
// without a recognizable prompt complete when the server falls silent, so
// detection is an optimization, never a filter.
var bannerPrompts = []string{"ogin: ", "ogin:", "assword: ", "assword:", "$ ", "# ", "> "}

// bannerComplete reports whether the decoded banner ends in a prompt.
func bannerComplete(data []byte) bool {
	s := string(data)
	for _, p := range bannerPrompts {
		if len(s) >= len(p) && s[len(s)-len(p):] == p {
			return true
		}
	}
	return false
}

// Login drives a full authentication attempt: wait for a login prompt,
// submit credentials, and report whether a shell prompt came back. Attack
// actors (Mirai-style bruteforcers) use this; the scanner does not.
func Login(ctx context.Context, conn io.ReadWriter, username, password string) (bool, error) {
	if err := awaitSubstring(ctx, conn, "login:", "Login:"); err != nil {
		return false, err
	}
	if _, err := conn.Write(append(EscapeData([]byte(username)), '\r', '\n')); err != nil {
		return false, err
	}
	if err := awaitSubstring(ctx, conn, "assword:"); err != nil {
		return false, err
	}
	if _, err := conn.Write(append(EscapeData([]byte(password)), '\r', '\n')); err != nil {
		return false, err
	}
	// Success is a shell prompt; failure is "Login incorrect" or EOF.
	// Watching for the rejection text matters: without it a failed attempt
	// reads on until the server falls silent.
	matched, err := awaitAny(ctx, conn, "$", "#", ">", "incorrect", "denied")
	if err != nil {
		return false, nil //nolint:nilerr // auth failure is a result, not an error
	}
	return matched != "incorrect" && matched != "denied", nil
}

// Exec sends a shell command on an authenticated session and collects output
// until the next prompt or until the server falls silent.
func Exec(conn io.ReadWriter, cmd string) (string, error) {
	if _, err := conn.Write(append(EscapeData([]byte(cmd)), '\r', '\n')); err != nil {
		return "", err
	}
	var out []byte
	scratch := netsim.GetScratch()
	defer netsim.PutScratch(scratch)
	buf := (*scratch)[:1024] // read in the same chunk sizes as before pooling
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			data, _ := SplitStream(buf[:n])
			out = append(out, data...)
			if containsAny(out, "$ ", "# ", "> ") {
				break
			}
		}
		if err != nil {
			break
		}
	}
	return string(out), nil
}

// awaitSubstring reads until any needle appears in the decoded stream.
func awaitSubstring(ctx context.Context, conn io.ReadWriter, needles ...string) error {
	_, err := awaitAny(ctx, conn, needles...)
	return err
}

// awaitAny reads until one of the needles appears, returning which.
func awaitAny(ctx context.Context, conn io.ReadWriter, needles ...string) (string, error) {
	var seen []byte
	scratch := netsim.GetScratch()
	defer netsim.PutScratch(scratch)
	buf := (*scratch)[:1024] // read in the same chunk sizes as before pooling
	for {
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		n, err := conn.Read(buf)
		if n > 0 {
			data, cmds := SplitStream(buf[:n])
			if reply := RefuseAll(cmds); len(reply) > 0 {
				if _, werr := conn.Write(reply); werr != nil {
					return "", werr
				}
			}
			seen = append(seen, data...)
			for _, needle := range needles {
				if needle != "" && indexOf(seen, needle) >= 0 {
					return needle, nil
				}
			}
		}
		if err != nil {
			return "", err
		}
	}
}

func containsAny(s []byte, needles ...string) bool {
	for _, n := range needles {
		if n != "" && indexOf(s, n) >= 0 {
			return true
		}
	}
	return false
}

func indexOf(s []byte, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if string(s[i:i+len(sub)]) == sub {
			return i
		}
	}
	return -1
}
