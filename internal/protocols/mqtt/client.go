package mqtt

import (
	"errors"
	"io"
)

// Client is a minimal MQTT 3.1.1 client used by the scanner's probe (a bare
// CONNECT to elicit the CONNACK return code), by attack actors (publishes,
// subscriptions) and by tests.
type Client struct {
	conn   io.ReadWriteCloser
	nextID uint16
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriteCloser) *Client {
	return &Client{conn: conn, nextID: 1}
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
	if _, err := c.conn.Write(pkt.Encode()); err != nil {
		return 0, err
	}
	resp, err := ReadPacket(c.conn)
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
		GrantedQoS: make([]byte, len(filters))}
	if _, err := c.conn.Write(pkt.Encode()); err != nil {
		return err
	}
	for {
		resp, err := ReadPacket(c.conn)
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
	pkt := &Packet{Type: PUBLISH, Topic: topic, Payload: payload, Retain: retain}
	_, err := c.conn.Write(pkt.Encode())
	return err
}

// CollectRetained subscribes to filter and gathers retained messages until
// the broker falls silent or max messages arrive. Live publishes fanned out
// to the subscription meanwhile are captured too.
func (c *Client) CollectRetained(filter string, max int) (map[string][]byte, error) {
	return c.collect(filter, max, false)
}

// RetainedSnapshot subscribes to filter and returns only the broker's
// retained messages. It pipelines a PINGREQ behind the SUBSCRIBE: brokers
// answer a connection's packets in order, so the PINGRESP arrives after the
// last retained message and delimits the set. The scanner uses this to list
// topics on open brokers ("all the topics and channels on the target host
// are listed", Section 3.1.3); excluding publishes that race the snapshot
// keeps scan results deterministic.
func (c *Client) RetainedSnapshot(filter string, max int) (map[string][]byte, error) {
	return c.collect(filter, max, true)
}

func (c *Client) collect(filter string, max int, sentinel bool) (map[string][]byte, error) {
	id := c.nextID
	c.nextID++
	pkt := &Packet{Type: SUBSCRIBE, PacketID: id, TopicFilter: []string{filter},
		GrantedQoS: []byte{0}}
	if _, err := c.conn.Write(pkt.Encode()); err != nil {
		return nil, err
	}
	if sentinel {
		if _, err := c.conn.Write((&Packet{Type: PINGREQ}).Encode()); err != nil {
			return nil, err
		}
	}
	got := make(map[string][]byte)
	for len(got) < max {
		resp, err := ReadPacket(c.conn)
		if err != nil {
			break // broker silent or closed: return what we have
		}
		if sentinel && resp.Type == PINGRESP {
			break // retained delivery complete
		}
		if resp.Type == PUBLISH {
			got[resp.Topic] = resp.Payload
		}
	}
	return got, nil
}

// Ping round-trips a PINGREQ.
func (c *Client) Ping() error {
	if _, err := c.conn.Write((&Packet{Type: PINGREQ}).Encode()); err != nil {
		return err
	}
	for {
		resp, err := ReadPacket(c.conn)
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
	_, _ = c.conn.Write((&Packet{Type: DISCONNECT}).Encode())
	return c.conn.Close()
}
