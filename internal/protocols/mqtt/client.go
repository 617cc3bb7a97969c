package mqtt

import (
	"bytes"
	"errors"
	"io"

	"openhire/internal/netsim"
)

// Client is a minimal MQTT 3.1.1 client used by the scanner's probe (a bare
// CONNECT to elicit the CONNACK return code), by attack actors (publishes,
// subscriptions) and by tests.
type Client struct {
	conn   io.ReadWriteCloser
	nextID uint16
	wbuf   []byte // encode buffer, reused by every send
	rbuf   []byte // read buffer: a read packet's Payload aliases it
	bufs   [128]byte
}

// read reads one packet into the client's buffer. Its Payload and
// GrantedQoS are valid until the next read.
func (c *Client) read() (Packet, error) {
	p, buf, err := netsim.ReadFramedBuf(c.conn, c.rbuf, framePacket)
	c.rbuf = buf
	return p, err
}

// send encodes p into the client's buffer and writes it.
func (c *Client) send(p *Packet) error {
	c.wbuf = p.appendTo(c.wbuf[:0])
	_, err := c.conn.Write(c.wbuf)
	return err
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriteCloser) *Client {
	c := &Client{conn: conn, nextID: 1}
	// A probe's packets fit the inline storage, so its buffers cost
	// nothing beyond the Client; a larger packet grows past it.
	c.wbuf, c.rbuf = c.bufs[:0:64], c.bufs[64:64]
	return c
}

// ErrRejected is returned by Connect when the broker refuses the session.
var ErrRejected = errors.New("mqtt: connection rejected")

// Connect performs the CONNECT/CONNACK handshake. Empty username means an
// anonymous attempt — exactly the paper's probe. The returned code is the
// broker's verdict even when err is ErrRejected.
func (c *Client) Connect(clientID, username, password string) (ConnackCode, error) {
	pkt := &Packet{Type: CONNECT, ClientID: clientID, KeepAlive: 60}
	if username != "" || password != "" {
		pkt.HasAuth = true
		pkt.Username = username
		pkt.Password = password
	}
	if err := c.send(pkt); err != nil {
		return 0, err
	}
	resp, err := c.read()
	if err != nil {
		return 0, err
	}
	if resp.Type != CONNACK {
		return 0, ErrMalformed
	}
	if resp.ReturnCode != ConnAccepted {
		return resp.ReturnCode, ErrRejected
	}
	return resp.ReturnCode, nil
}

// Subscribe sends a SUBSCRIBE for the filters and waits for the SUBACK.
func (c *Client) Subscribe(filters ...string) error {
	id := c.nextID
	c.nextID++
	pkt := &Packet{Type: SUBSCRIBE, PacketID: id, TopicFilter: filters,
		GrantedQoS: qos0Codes(len(filters))}
	if err := c.send(pkt); err != nil {
		return err
	}
	for {
		resp, err := c.read()
		if err != nil {
			return err
		}
		if resp.Type == SUBACK && resp.PacketID == id {
			return nil
		}
		// Retained publishes may arrive interleaved; skip them here.
	}
}

// Publish sends a PUBLISH packet (QoS 0, optionally retained).
func (c *Client) Publish(topic string, payload []byte, retain bool) error {
	return c.send(&Packet{Type: PUBLISH, Topic: topic, Payload: payload, Retain: retain})
}

// RetainedSnapshot subscribes to filter and returns only the broker's
// retained messages. It pipelines a PINGREQ behind the SUBSCRIBE: brokers
// answer a connection's packets in order, so the PINGRESP arrives after the
// last retained message and delimits the set. The scanner uses this to list
// topics on open brokers ("all the topics and channels on the target host
// are listed", Section 3.1.3); excluding publishes that race the snapshot
// keeps scan results deterministic.
func (c *Client) RetainedSnapshot(filter string, max int) (map[string][]byte, error) {
	id := c.nextID
	c.nextID++
	pkt := &Packet{Type: SUBSCRIBE, PacketID: id, TopicFilter: []string{filter},
		GrantedQoS: []byte{0}}
	if err := c.send(pkt); err != nil {
		return nil, err
	}
	if err := c.send(&Packet{Type: PINGREQ}); err != nil {
		return nil, err
	}
	got := make(map[string][]byte)
	for len(got) < max {
		resp, err := c.read()
		if err != nil {
			break // broker silent or closed: return what we have
		}
		if resp.Type == PINGRESP {
			break // retained delivery complete
		}
		if resp.Type == PUBLISH {
			got[resp.Topic] = bytes.Clone(resp.Payload)
		}
	}
	return got, nil
}

// Ping round-trips a PINGREQ.
func (c *Client) Ping() error {
	if err := c.send(&Packet{Type: PINGREQ}); err != nil {
		return err
	}
	for {
		resp, err := c.read()
		if err != nil {
			return err
		}
		if resp.Type == PINGRESP {
			return nil
		}
	}
}

// Disconnect sends DISCONNECT and closes the connection.
func (c *Client) Disconnect() error {
	_ = c.send(&Packet{Type: DISCONNECT})
	return c.conn.Close()
}
