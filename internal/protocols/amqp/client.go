package amqp

import (
	"bytes"
	"encoding/binary"
	"io"
)

// Probe performs the paper's AMQP banner grab over an established
// connection: send the protocol header, read connection.start, and return
// the server properties without completing authentication.
func Probe(conn io.ReadWriter) (*ServerProperties, error) {
	if _, err := conn.Write(ProtocolHeader); err != nil {
		return nil, err
	}
	f, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	return ParseStart(f)
}

// Session is an authenticated client session for attack actors.
type Session struct {
	conn  io.ReadWriteCloser
	props *ServerProperties
}

// Connect performs the full preamble: header, start/start-ok with the given
// mechanism and credentials, tune-ok and open. It reports whether the broker
// admitted the session.
func Connect(conn io.ReadWriteCloser, mechanism, user, pass string) (*Session, bool, error) {
	if _, err := conn.Write(ProtocolHeader); err != nil {
		return nil, false, err
	}
	start, err := readFrame(conn)
	if err != nil {
		return nil, false, err
	}
	props, err := ParseStart(start)
	if err != nil {
		return nil, false, err
	}
	if _, err := conn.Write(StartOKFrame(mechanism, user, pass).Marshal()); err != nil {
		return nil, false, err
	}
	// Expect tune (admitted) or connection.close 403 (rejected).
	f, err := readFrame(conn)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, false, nil
		}
		return nil, false, err
	}
	if f.Type == FrameMethod && len(f.Payload) >= 4 {
		class := binary.BigEndian.Uint16(f.Payload[0:2])
		method := binary.BigEndian.Uint16(f.Payload[2:4])
		if class == ClassConnection && method == MethodClose {
			return nil, false, nil
		}
		if class == ClassConnection && method == MethodTune {
			// tune-ok then open
			if _, err := conn.Write(methodFrame(ClassConnection, MethodTuneOK, f.Payload[4:]...).Marshal()); err != nil {
				return nil, false, err
			}
			if _, err := conn.Write(methodFrame(ClassConnection, MethodOpen, 1, '/').Marshal()); err != nil {
				return nil, false, err
			}
			if _, err := readFrame(conn); err != nil { // open-ok
				return nil, false, err
			}
			return &Session{conn: conn, props: props}, true, nil
		}
	}
	return nil, false, ErrMalformed
}

// Properties returns the server identity captured at connect.
func (s *Session) Properties() *ServerProperties { return s.props }

// Publish sends a basic.publish — the queue-poisoning primitive.
func (s *Session) Publish(exchange, routingKey string, body []byte) error {
	_, err := s.conn.Write(PublishFrame(exchange, routingKey, body).Marshal())
	return err
}

// Close sends connection.close and closes the transport.
func (s *Session) Close() error {
	_, _ = s.conn.Write(methodFrame(ClassConnection, MethodClose, 0, 200).Marshal())
	return s.conn.Close()
}

// IsAMQP reports whether a server greeting looks like an AMQP rejection
// header (servers answer bad greetings with their supported header).
func IsAMQP(greeting []byte) bool {
	return bytes.HasPrefix(greeting, []byte("AMQP"))
}
