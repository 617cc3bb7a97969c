// Package ssh implements the SSH protocol at the interaction level the
// study's honeypots need: the RFC 4253 identification-string exchange
// (the "SSH-2.0-..." banner every scanner records) and a credential-attempt
// phase for logging brute-force attacks.
//
// Substitution note (see DESIGN.md): real SSH requires a full key exchange
// and encrypted transport, which none of the paper's analyses depend on —
// Cowrie-class honeypots log (username, password, source) tuples and scan
// engines record the version banner. We therefore keep the identification
// exchange wire-accurate and replace the encrypted auth conversation with a
// plaintext "user password\n" exchange. Every observable the paper uses
// (banner text, credential dictionary, attempt counts, Table 12) is
// preserved.
package ssh

import (
	"io"
	"strings"
	"time"

	"openhire/internal/netsim"
)

// Port is the standard SSH port.
const Port uint16 = 22

// Event logs one SSH session.
type Event struct {
	Time          time.Time
	Remote        netsim.IPv4
	ClientVersion string
	Attempts      []Credential
	Success       bool
	Commands      []string
}

// Credential is one username/password attempt.
type Credential struct {
	Username string
	Password string
}

// Config describes an SSH endpoint.
type Config struct {
	// Version is the identification string sent to clients, without the
	// trailing CRLF ("SSH-2.0-OpenSSH_7.4p1 Debian-10+deb9u7"). Kippo's
	// fingerprint "SSH-2.0-OpenSSH_5.1p1 Debian-5" (Table 6) lives here.
	Version string
	// Credentials maps username → password; empty rejects everything
	// (honeypots typically accept nothing but log all attempts, or accept
	// everything — see AcceptAll).
	Credentials map[string]string
	// AcceptAll admits any credential pair (Cowrie's default pot behaviour).
	AcceptAll bool
	// MaxAttempts closes the session after this many failures (0 = 6).
	MaxAttempts int
	// OnEvent receives the session record at close.
	OnEvent func(Event)
}

// Server implements netsim.StreamHandler.
type Server struct {
	cfg Config
}

// NewServer builds a Server.
func NewServer(cfg Config) *Server {
	if cfg.Version == "" {
		cfg.Version = "SSH-2.0-OpenSSH_7.4"
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 6
	}
	return &Server{cfg: cfg}
}

// NewStepper implements netsim.StreamHandler: a fresh per-session state
// machine for the conversation engine.
func (s *Server) NewStepper() netsim.Stepper { return &serverStepper{s: s} }

// serverStepper session states.
const (
	stVersion uint8 = iota // awaiting the client identification string
	stAuth                 // awaiting a "user password" line
	stShell                // awaiting a shell command line
)

// serverStepper is one SSH session as a resumable state machine. Writes land
// at exactly the points the classic blocking loop wrote ("denied\n",
// "granted\n", "$ \n"), so faulted transports cut sessions at identical
// byte offsets.
type serverStepper struct {
	s     *Server
	ev    Event
	state uint8
}

// Step implements netsim.Stepper. Every path that falls out of the switch
// ends the session — handleLine's StepDone, an overlong line
// (netsim.MaxLine), EvEOF, EvBroken, where a blocking read would have
// errored out — and the record is emitted once, below.
func (t *serverStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		t.ev.Time = c.DialTime()
		t.ev.Remote = c.RemoteIP()
		if _, err := c.Write([]byte(t.s.cfg.Version + "\r\n")); err == nil {
			return netsim.StepMore
		}
	case netsim.EvData:
		if v, _ := netsim.Frames(c, netsim.Line, t.handleLine); v == netsim.StepMore {
			return v
		}
	}
	if t.s.cfg.OnEvent != nil {
		t.s.cfg.OnEvent(t.ev)
	}
	return netsim.StepDone
}

// handleLine advances the session by one completed input line.
func (t *serverStepper) handleLine(c *netsim.ServerConv, raw []byte) netsim.StepVerdict {
	s := t.s
	line := string(raw)
	switch t.state {
	case stVersion:
		t.ev.ClientVersion = strings.TrimSpace(line)
		if !strings.HasPrefix(t.ev.ClientVersion, "SSH-") {
			return netsim.StepDone // not an SSH client; banner grab ends here
		}
		if len(t.ev.Attempts) >= s.cfg.MaxAttempts {
			return netsim.StepDone
		}
		t.state = stAuth

	case stAuth:
		fields := strings.SplitN(strings.TrimSpace(line), " ", 2)
		cred := Credential{Username: fields[0]}
		if len(fields) == 2 {
			cred.Password = fields[1]
		}
		t.ev.Attempts = append(t.ev.Attempts, cred)
		ok := s.cfg.AcceptAll
		if want, exists := s.cfg.Credentials[cred.Username]; exists && want == cred.Password {
			ok = true
		}
		if !ok {
			if _, err := c.Write([]byte("denied\n")); err != nil {
				return netsim.StepDone
			}
			if len(t.ev.Attempts) >= s.cfg.MaxAttempts {
				return netsim.StepDone
			}
			break
		}
		t.ev.Success = true
		if _, err := c.Write([]byte("granted\n")); err != nil {
			return netsim.StepDone
		}
		t.state = stShell

	case stShell:
		// Shell phase: log commands until exit.
		cmd := strings.TrimSpace(line)
		if cmd == "" {
			break
		}
		t.ev.Commands = append(t.ev.Commands, cmd)
		if cmd == "exit" {
			return netsim.StepDone
		}
		if _, err := c.Write([]byte("$ \n")); err != nil {
			return netsim.StepDone
		}
		if len(t.ev.Commands) >= 64 {
			return netsim.StepDone
		}
	}
	return netsim.StepMore
}

// GrabBanner reads the server identification string — the scan probe.
func GrabBanner(conn io.Reader) (string, error) {
	br := netsim.GetReader(conn)
	line, err := br.ReadString('\n')
	netsim.PutReader(br)
	if err != nil && line == "" {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

// Login performs the simplified credential exchange after GrabBanner on the
// same connection: send our version, then the attempt.
func Login(conn io.ReadWriter, clientVersion, user, pass string) (bool, error) {
	if _, err := conn.Write([]byte(clientVersion + "\r\n")); err != nil {
		return false, err
	}
	return Attempt(conn, user, pass)
}

// Attempt submits one more credential pair on an open session.
func Attempt(conn io.ReadWriter, user, pass string) (bool, error) {
	if _, err := conn.Write([]byte(user + " " + pass + "\n")); err != nil {
		return false, err
	}
	br := netsim.GetReader(conn)
	resp, err := br.ReadString('\n')
	netsim.PutReader(br)
	if err != nil {
		return false, err
	}
	return strings.TrimSpace(resp) == "granted", nil
}
