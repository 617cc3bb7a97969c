// Package ftp implements the FTP control-channel conversation the Dionaea
// honeypot profile needs: USER/PASS authentication (including anonymous),
// directory listing, and STOR uploads so malware deployments are captured
// (the paper's honeypots received Mozi and Lokibot binaries over FTP,
// Section 5.1.5).
//
// Data transfers use a simplified inline mode: STOR is followed by a
// length-prefixed upload on the control connection. The observable the
// study depends on — the uploaded bytes, hashed and checked against the
// threat database — is unchanged; separate PORT/PASV data channels add no
// measurement value in the simulation.
package ftp

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"openhire/internal/netsim"
)

// Port is the FTP control port.
const Port uint16 = 21

// Event logs one FTP session.
type Event struct {
	Time     time.Time
	Remote   netsim.IPv4
	Username string
	Password string
	LoginOK  bool
	Uploads  []Upload
	Commands []string
}

// Upload records one STOR transfer.
type Upload struct {
	Name string
	Data []byte
}

// Config describes an FTP endpoint.
type Config struct {
	// Banner is the 220 greeting ("220 (vsFTPd 2.3.4)").
	Banner string
	// AllowAnonymous admits USER anonymous — the Springall et al. [74]
	// misconfiguration this paper's methodology descends from.
	AllowAnonymous bool
	// Credentials maps username → password.
	Credentials map[string]string
	// AllowWrite admits STOR for authenticated users.
	AllowWrite bool
	// Files maps names to contents for LIST/RETR.
	Files map[string][]byte
	// OnEvent receives the session record at close.
	OnEvent func(Event)
	// MaxUploadBytes bounds one STOR (0 = 1 MiB).
	MaxUploadBytes int
}

// Server implements netsim.StreamHandler.
type Server struct {
	cfg Config
}

// NewServer builds a Server.
func NewServer(cfg Config) *Server {
	if cfg.Banner == "" {
		cfg.Banner = "220 (vsFTPd 3.0.3)"
	}
	if cfg.MaxUploadBytes == 0 {
		cfg.MaxUploadBytes = 1 << 20
	}
	return &Server{cfg: cfg}
}

// NewStepper implements netsim.StreamHandler.
func (s *Server) NewStepper() netsim.Stepper { return &serverStepper{s: s} }

// serverStepper input states.
const (
	stCommand    uint8 = iota // awaiting a command line
	stUploadSize              // after STOR's 150: awaiting the "<n>\n" length line
	stUploadData              // awaiting the remaining upload bytes
)

// serverStepper is one FTP control session. Every reply is its own write,
// so a tripped stream fault cuts the session at a reply boundary.
type serverStepper struct {
	s           *Server
	ev          Event
	state       uint8
	authed      bool
	pendingUser string
	upload      Upload // the STOR in progress
	need        int    // upload bytes still outstanding
}

// Step implements netsim.Stepper. Every path that falls out of the switch
// ends the session: the record is emitted once, below.
func (t *serverStepper) Step(c *netsim.ServerConv, ev netsim.ConvEvent) netsim.StepVerdict {
	switch ev {
	case netsim.EvOpen:
		t.ev.Time = c.DialTime()
		t.ev.Remote = c.RemoteIP()
		if reply(c, t.s.cfg.Banner) {
			return netsim.StepMore
		}
	case netsim.EvData:
		v, err := netsim.Frames(c, t.decode, t.handle)
		if v == netsim.StepMore {
			return v
		}
		if err != nil { // no newline within netsim.MaxLine bytes
			_ = reply(c, "500 Line too long.")
		}
	default:
		// EvEOF / EvBroken: the peer left; mid-upload that aborts the transfer.
		if t.state != stCommand {
			_ = reply(c, "426 Connection closed; transfer aborted.")
		}
	}
	if t.s.cfg.OnEvent != nil {
		t.s.cfg.OnEvent(t.ev)
	}
	return netsim.StepDone
}

// decode frames the control channel: a line, or during an upload whatever
// part of the outstanding bytes has arrived.
func (t *serverStepper) decode(raw []byte) ([]byte, int, error) {
	if t.state != stUploadData {
		return netsim.Line(raw)
	}
	if len(raw) == 0 {
		return nil, 1, nil
	}
	n := min(len(raw), t.need)
	return raw[:n], n, nil
}

// handle runs one frame. The session ends after 128 commands, once no
// upload is in progress.
func (t *serverStepper) handle(c *netsim.ServerConv, frame []byte) netsim.StepVerdict {
	more := true
	if t.state == stUploadData {
		t.upload.Data = append(t.upload.Data, frame...)
		if t.need -= len(frame); t.need == 0 {
			more = t.uploaded(c)
		}
	} else {
		more = t.handleLine(c, strings.TrimSpace(string(frame)))
	}
	if !more || (t.state == stCommand && len(t.ev.Commands) >= 128) {
		return netsim.StepDone
	}
	return netsim.StepMore
}

func reply(c *netsim.ServerConv, line string) bool {
	_, err := c.Write([]byte(line + "\r\n"))
	return err == nil
}

// uploaded files the completed STOR and confirms it.
func (t *serverStepper) uploaded(c *netsim.ServerConv) bool {
	t.ev.Uploads = append(t.ev.Uploads, t.upload)
	t.state = stCommand
	return reply(c, "226 Transfer complete.")
}

// handleLine runs one complete line; false ends the session.
func (t *serverStepper) handleLine(c *netsim.ServerConv, line string) bool {
	s := t.s
	if t.state == stUploadSize {
		n, err := strconv.Atoi(line)
		if err != nil || n < 0 || n > s.cfg.MaxUploadBytes {
			_ = reply(c, "426 Connection closed; transfer aborted.")
			return false
		}
		t.upload.Data = make([]byte, 0, n)
		if t.need = n; n == 0 {
			return t.uploaded(c)
		}
		t.state = stUploadData
		return true
	}
	if line == "" {
		return true
	}
	t.ev.Commands = append(t.ev.Commands, line)
	verb, arg := splitCommand(line)
	switch verb {
	case "USER":
		t.pendingUser = arg
		return reply(c, "331 Please specify the password.")
	case "PASS":
		t.ev.Username, t.ev.Password = t.pendingUser, arg
		switch {
		case strings.EqualFold(t.pendingUser, "anonymous") && s.cfg.AllowAnonymous:
			t.authed = true
		case s.cfg.Credentials[t.pendingUser] == arg && t.pendingUser != "":
			if _, exists := s.cfg.Credentials[t.pendingUser]; exists {
				t.authed = true
			}
		}
		t.ev.LoginOK = t.authed
		if t.authed {
			return reply(c, "230 Login successful.")
		}
		return reply(c, "530 Login incorrect.")
	case "SYST":
		return reply(c, "215 UNIX Type: L8")
	case "PWD":
		return reply(c, `257 "/" is the current directory`)
	case "LIST", "NLST":
		if !t.authed {
			return reply(c, "530 Please login with USER and PASS.")
		}
		names := make([]string, 0, len(s.cfg.Files))
		for name := range s.cfg.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		if !reply(c, "150 Here comes the directory listing.") {
			return false
		}
		for _, n := range names {
			if !reply(c, n) {
				return false
			}
		}
		return reply(c, "226 Directory send OK.")
	case "STOR":
		if !t.authed || !s.cfg.AllowWrite {
			return reply(c, "550 Permission denied.")
		}
		t.upload = Upload{Name: arg}
		t.state = stUploadSize
		return reply(c, "150 Ok to send data.")
	case "QUIT":
		_ = reply(c, "221 Goodbye.")
		return false
	default:
		return reply(c, "502 Command not implemented.")
	}
}

func splitCommand(line string) (verb, arg string) {
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return strings.ToUpper(line), ""
	}
	return strings.ToUpper(line[:sp]), strings.TrimSpace(line[sp+1:])
}

// Client drives an FTP session for scan probes and attack actors.
type Client struct {
	conn io.ReadWriteCloser
	r    *bufio.Reader
}

// NewClient wraps an established control connection.
func NewClient(conn io.ReadWriteCloser) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn)}
}

// ReadReply reads one server reply line.
func (c *Client) ReadReply() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil && line == "" {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

func (c *Client) send(line string) error {
	_, err := io.WriteString(c.conn, line+"\r\n")
	return err
}

// Login performs USER/PASS and reports acceptance. Call after consuming the
// 220 banner with ReadReply.
func (c *Client) Login(user, pass string) (bool, error) {
	if err := c.send("USER " + user); err != nil {
		return false, err
	}
	if _, err := c.ReadReply(); err != nil {
		return false, err
	}
	if err := c.send("PASS " + pass); err != nil {
		return false, err
	}
	reply, err := c.ReadReply()
	if err != nil {
		return false, err
	}
	return strings.HasPrefix(reply, "230"), nil
}

// Store uploads data under name using the inline transfer mode.
func (c *Client) Store(name string, data []byte) (bool, error) {
	if err := c.send("STOR " + name); err != nil {
		return false, err
	}
	reply, err := c.ReadReply()
	if err != nil {
		return false, err
	}
	if !strings.HasPrefix(reply, "150") {
		return false, nil
	}
	if err := c.send(strconv.Itoa(len(data))); err != nil {
		return false, err
	}
	if _, err := c.conn.Write(data); err != nil {
		return false, err
	}
	reply, err = c.ReadReply()
	if err != nil {
		return false, err
	}
	return strings.HasPrefix(reply, "226"), nil
}

// Quit ends the session.
func (c *Client) Quit() {
	_ = c.send("QUIT")
	_, _ = c.ReadReply()
	_ = c.conn.Close()
}
