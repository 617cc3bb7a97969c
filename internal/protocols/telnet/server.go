package telnet

import (
	"strings"
	"time"

	"openhire/internal/netsim"
)

// AuthMode describes how a Telnet endpoint gates access. The paper's
// misconfiguration classes (Table 2) map directly onto these modes.
type AuthMode uint8

// Authentication modes.
const (
	// AuthNone drops the caller straight into a shell prompt — the
	// "No auth, console access" misconfiguration.
	AuthNone AuthMode = iota
	// AuthNoneRoot drops the caller into a root shell — "No auth, root
	// console access".
	AuthNoneRoot
	// AuthLogin requires username/password through a login: prompt.
	AuthLogin
)

// Event reports one completed Telnet session to the owner of the server
// (honeypots log these as attack events).
type Event struct {
	Time     time.Time
	Remote   netsim.IPv4
	Username string
	Password string
	LoginOK  bool
	Commands []string // shell commands issued after login
	RawBytes int
}

// Config describes a Telnet endpoint: a real IoT device profile or a
// honeypot profile. The zero value is an unauthenticated BusyBox-ish shell.
type Config struct {
	// PreLoginBanner is sent immediately on connect, before any prompt.
	// Device identity leaks here (Table 11: "Welcome to ViewStation", ...).
	PreLoginBanner string
	// LoginPrompt is sent when Auth is AuthLogin ("login: ", "192.0.0.64 login:").
	LoginPrompt string
	// PasswordPrompt is sent after a username is received.
	PasswordPrompt string
	// ShellPrompt is the post-auth prompt ("$ ", "root@device:~$ ", "# ").
	ShellPrompt string
	// Auth selects the authentication mode.
	Auth AuthMode
	// Username and Password are the one account an AuthLogin endpoint
	// admits: a device has exactly one. An empty Username admits no one
	// (the honeypots that log every attempt and let none in).
	Username string
	Password string
	// AcceptAll admits any credential pair under AuthLogin — the Cowrie
	// honeypot behaviour (log the attempt, fake success).
	AcceptAll bool
	// NegotiateOptions, when true, opens with IAC WILL ECHO / WILL SGA as
	// BusyBox telnetd does. Honeypot fingerprints depend on these bytes
	// (Table 6: Cowrie's "\xff\xfd\x1f...").
	NegotiateOptions bool
	// RawNegotiation, when non-nil, replaces the default negotiation bytes;
	// honeypot profiles use it to reproduce their published banners exactly.
	RawNegotiation []byte
	// MaxLoginAttempts closes the session after this many failures (0 = 3).
	MaxLoginAttempts int
	// OnEvent, when non-nil, receives the session record at close.
	OnEvent func(Event)
	// Hostname is substituted for %h in prompts.
	Hostname string
	// CommandOutput maps a shell command to its canned output. Unknown
	// commands produce a BusyBox-style "not found" line.
	CommandOutput map[string]string
}

// Server serves Telnet sessions for a Config.
type Server struct {
	cfg Config
}

// NewServer returns a Server for cfg.
func NewServer(cfg Config) *Server {
	return &Server{cfg: withDefaults(cfg)}
}

// withDefaults fills in the prompts and the attempt cap cfg leaves unset.
func withDefaults(cfg Config) Config {
	if cfg.MaxLoginAttempts == 0 {
		cfg.MaxLoginAttempts = 3
	}
	if cfg.LoginPrompt == "" {
		cfg.LoginPrompt = "login: "
	}
	if cfg.PasswordPrompt == "" {
		cfg.PasswordPrompt = "Password: "
	}
	if cfg.ShellPrompt == "" {
		cfg.ShellPrompt = "$ "
	}
	return cfg
}

// Session is a Server sized for one conversation: the config and the
// session state share a single allocation. A service rebuilt for every dial
// — a derived device, whose config is a pure function of its address —
// serves through one, where a Server taking many sessions would cost a
// server, a stepper and their buffers per dial.
type Session struct {
	srv  Server
	st   serverStepper
	used bool
}

// NewSession returns a Session for cfg.
func NewSession(cfg Config) *Session {
	return &Session{srv: Server{cfg: withDefaults(cfg)}}
}

// NewStepper implements netsim.StreamHandler. The first call hands out the
// embedded session state; any later one gets a fresh stepper of its own, so
// a Session is still a correct handler when dialed twice.
func (s *Session) NewStepper() netsim.Stepper {
	if s.used {
		return s.srv.NewStepper()
	}
	s.used = true
	s.st.s = &s.srv
	return &s.st
}

// expand substitutes prompt placeholders.
func (s *Server) expand(p string) string {
	return strings.ReplaceAll(p, "%h", s.cfg.Hostname)
}

// NewStepper implements netsim.StreamHandler: a fresh per-session state
// machine for the conversation engine.
func (s *Server) NewStepper() netsim.Stepper { return &serverStepper{s: s} }

// serverStepper session states.
const (
	stLogin uint8 = iota // awaiting username line
	stPass               // awaiting password line
	stShell              // awaiting shell command line
)

// IAC-filter states carried across input batches.
const (
	iacNone   uint8 = iota
	iacVerb         // consumed IAC, awaiting verb
	iacOption       // consumed IAC + DO/DONT/WILL/WONT, awaiting option byte
)

// serverStepper is one Telnet session as a resumable state machine. Output
// accumulates in out and is flushed at exactly the points the classic
// blocking loop called Flush, so write errors (tripped stream faults) cut
// the session at identical byte offsets.
type serverStepper struct {
	s        *Server
	ev       Event
	out      []byte // pending response bytes, flushed at prompt boundaries
	outBuf   [128]byte
	line     []byte // partial input line
	state    uint8
	iacState uint8
	user     string
	attempt  int
	emitted  bool
}

// Step implements netsim.Stepper.
func (t *serverStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		return t.open(c)
	case netsim.EvData:
		v, _ := netsim.Frames(c, t.readLine, t.handleLine)
		return v
	default:
		// EvEOF / EvBroken: a blocking readLine would have errored out of
		// the session loop here.
		return t.finish()
	}
}

// open sends negotiation, banner and the first prompt.
func (t *serverStepper) open(c *netsim.ServerConv) netsim.StepVerdict {
	t.ev.Time = c.DialTime()
	t.ev.Remote = c.RemoteIP()
	// A device's negotiation, banner and prompt fit the inline buffer, so
	// the opening burst allocates nothing; longer output grows out past it.
	t.out = t.outBuf[:0]
	s := t.s
	// Option negotiation first: these raw bytes are exactly what ZGrab's
	// banner capture records, and what honeypot fingerprinting matches on.
	switch {
	case s.cfg.RawNegotiation != nil:
		t.out = append(t.out, s.cfg.RawNegotiation...)
	case s.cfg.NegotiateOptions:
		t.out = append(t.out, Negotiate(WILL, OptEcho)...)
		t.out = append(t.out, Negotiate(WILL, OptSuppressGoAhead)...)
	}
	if s.cfg.PreLoginBanner != "" {
		t.out = append(t.out, s.expand(s.cfg.PreLoginBanner)...)
	}
	switch s.cfg.Auth {
	case AuthNone, AuthNoneRoot:
		t.ev.LoginOK = true
		t.state = stShell
		t.out = append(t.out, s.expand(s.cfg.ShellPrompt)...)
	case AuthLogin:
		t.state = stLogin
		t.out = append(t.out, s.expand(s.cfg.LoginPrompt)...)
	}
	if !t.flush(c) {
		return t.finish()
	}
	return netsim.StepMore
}

// handleLine advances the session by one completed input line.
func (t *serverStepper) handleLine(c *netsim.ServerConv, in inputLine) netsim.StepVerdict {
	if !in.ok {
		return netsim.StepMore
	}
	s := t.s
	line := in.text
	switch t.state {
	case stLogin:
		t.user = line
		t.out = append(t.out, s.expand(s.cfg.PasswordPrompt)...)
		if !t.flush(c) {
			return t.finish()
		}
		t.state = stPass

	case stPass:
		t.ev.Username, t.ev.Password = t.user, line
		t.attempt++
		if s.cfg.AcceptAll || (s.cfg.Username != "" && t.user == s.cfg.Username && line == s.cfg.Password) {
			t.ev.LoginOK = true
			t.state = stShell
			t.out = append(t.out, s.expand(s.cfg.ShellPrompt)...)
			if !t.flush(c) {
				return t.finish()
			}
			break
		}
		t.out = append(t.out, "\r\nLogin incorrect\r\n"...)
		if t.attempt >= s.cfg.MaxLoginAttempts {
			t.flush(c)
			return t.finish()
		}
		t.out = append(t.out, s.expand(s.cfg.LoginPrompt)...)
		if !t.flush(c) {
			return t.finish()
		}
		t.state = stLogin

	case stShell:
		cmd := strings.TrimSpace(line)
		if cmd == "" {
			t.out = append(t.out, s.expand(s.cfg.ShellPrompt)...)
			if !t.flush(c) {
				return t.finish()
			}
			break
		}
		t.ev.Commands = append(t.ev.Commands, cmd)
		switch cmd {
		case "exit", "quit", "logout":
			t.flush(c)
			return t.finish()
		default:
			if out, ok := s.cfg.CommandOutput[cmd]; ok {
				t.out = append(t.out, out...)
				if !strings.HasSuffix(out, "\n") {
					t.out = append(t.out, "\r\n"...)
				}
			} else {
				name := cmd
				if sp := strings.IndexByte(name, ' '); sp > 0 {
					name = name[:sp]
				}
				t.out = append(t.out, "-sh: "+name+": not found\r\n"...)
			}
		}
		if len(t.ev.Commands) >= 64 { // bound runaway sessions
			// The blocking loop returned here before its next Flush, so the
			// final command's output was never delivered; drop it the same way.
			t.out = t.out[:0]
			return t.finish()
		}
		t.out = append(t.out, s.expand(s.cfg.ShellPrompt)...)
		if !t.flush(c) {
			return t.finish()
		}
	}
	return netsim.StepMore
}

// inputLine is one frame of readLine: a completed line, or — ok false —
// input taken into the partial line.
type inputLine struct {
	text string
	ok   bool
}

// readLine is Telnet's IAC-filtering line reader, in netsim.Frames' decoder
// shape. It keeps state across calls — the partial line, the IAC state, the
// raw byte count — so it takes every byte it scans: a line ends at '\n' or
// once it outgrows 512 filtered bytes (handed over without consuming a
// terminator), and input that runs out mid-line is taken whole.
func (t *serverStepper) readLine(raw []byte) (inputLine, int, error) {
	if len(raw) == 0 {
		return inputLine{}, 1, nil
	}
	for i, b := range raw {
		t.ev.RawBytes++
		ended := false
		switch {
		case t.iacState == iacVerb:
			switch b {
			case DO, DONT, WILL, WONT:
				t.iacState = iacOption
			case IAC:
				t.line = append(t.line, IAC)
				t.iacState = iacNone
			default:
				t.iacState = iacNone
			}
		case t.iacState == iacOption:
			t.iacState = iacNone
		case b == IAC:
			t.iacState = iacVerb
		case b == '\n':
			ended = true
		default:
			if b != '\r' {
				t.line = append(t.line, b)
			}
			ended = len(t.line) > 512
		}
		if ended {
			line := inputLine{text: string(t.line), ok: true}
			t.line = t.line[:0]
			return line, i + 1, nil
		}
	}
	return inputLine{}, len(raw), nil
}

// flush delivers the pending output in one write, reporting false on a dead
// or faulted transport (the blocking loop's Flush-error returns).
func (t *serverStepper) flush(c *netsim.ServerConv) bool {
	if len(t.out) == 0 {
		return true
	}
	_, err := c.Write(t.out)
	t.out = t.out[:0]
	return err == nil
}

// finish emits the session event exactly once and ends the conversation.
func (t *serverStepper) finish() netsim.StepVerdict {
	if !t.emitted {
		t.emitted = true
		if t.s.cfg.OnEvent != nil {
			t.s.cfg.OnEvent(t.ev)
		}
	}
	return netsim.StepDone
}
