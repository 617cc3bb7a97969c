package iot

import (
	"strings"
	"testing"
	"time"

	"openhire/internal/netsim"
	"openhire/internal/protocols/amqp"
	"openhire/internal/protocols/smb"
	"openhire/internal/protocols/telnet"
	"openhire/internal/protocols/tr069"
	"openhire/internal/protocols/xmpp"
)

func specFor(misconfig Misconfig, proto Protocol, model string) DeviceSpec {
	m, _ := FindModel(model)
	return DeviceSpec{
		IP: netsim.MustParseIPv4("100.0.0.9"), Protocol: proto, Model: m,
		Misconfig: misconfig, Username: "admin", Password: "s3cret",
	}
}

func TestTelnetConfigVariants(t *testing.T) {
	root := TelnetConfig(specFor(TelnetNoAuthRoot, ProtoTelnet, "HiKVision Camera"))
	if root.Auth != telnet.AuthNoneRoot || !strings.Contains(root.ShellPrompt, "root@") {
		t.Fatalf("root config %+v", root)
	}
	open := TelnetConfig(specFor(TelnetNoAuth, ProtoTelnet, "Polycom HDX"))
	if open.Auth != telnet.AuthNone || open.ShellPrompt != "$ " {
		t.Fatalf("open config %+v", open)
	}
	gated := TelnetConfig(specFor(MisconfigNone, ProtoTelnet, "ZyXEL PK5001Z"))
	if gated.Auth != telnet.AuthLogin || gated.Username != "admin" || gated.Password != "s3cret" {
		t.Fatalf("gated config %+v", gated)
	}
	// Root prompt falls back to a synthesized one when the model has none.
	spec := specFor(TelnetNoAuthRoot, ProtoTelnet, "Polycom HDX")
	spec.Model.TelnetPrompt = "$ "
	cfg := TelnetConfig(spec)
	if !strings.HasPrefix(cfg.ShellPrompt, "root@device-") {
		t.Fatalf("fallback prompt %q", cfg.ShellPrompt)
	}
}

func TestMQTTBrokerVariants(t *testing.T) {
	spec := specFor(MQTTNoAuth, ProtoMQTT, "Octoprint")
	open := modelBroker(spec.Model.MQTTTopic).Clone(mqttConfig(spec))
	if _, ok := open.RetainedValue("octoPrint/temperature/bed"); !ok {
		t.Fatal("identifying topic not retained")
	}
	// RequireAuth is internal; behaviour checked via scan tests.
}

func TestAMQPConfigVariants(t *testing.T) {
	vuln := AMQPConfig(specFor(AMQPNoAuth, ProtoAMQP, "Generic AMQP broker"))
	if !amqp.KnownVulnerableVersions[vuln.Properties.Version] {
		t.Fatalf("vulnerable broker runs %s", vuln.Properties.Version)
	}
	if vuln.RequireAuth {
		t.Fatal("vulnerable broker requires auth")
	}
	ok := AMQPConfig(specFor(MisconfigNone, ProtoAMQP, "Generic AMQP broker"))
	if !ok.RequireAuth || amqp.KnownVulnerableVersions[ok.Properties.Version] {
		t.Fatalf("configured broker %+v", ok.Properties)
	}
	// Version alternates by address parity.
	spec := specFor(AMQPNoAuth, ProtoAMQP, "Generic AMQP broker")
	spec.IP++
	other := AMQPConfig(spec)
	if other.Properties.Version == vuln.Properties.Version {
		t.Fatal("version does not vary")
	}
}

func TestXMPPConfigVariants(t *testing.T) {
	anon := XMPPConfig(specFor(XMPPAnonymous, ProtoXMPP, "Generic XMPP server"))
	if !anon.AllowAnonymous || !hasMech(anon.Features, "ANONYMOUS") {
		t.Fatalf("anon config %+v", anon.Features)
	}
	plain := XMPPConfig(specFor(XMPPNoEncryption, ProtoXMPP, "Generic XMPP server"))
	if plain.AllowAnonymous || !hasMech(plain.Features, "PLAIN") || plain.Features.RequireTLS {
		t.Fatalf("plain config %+v", plain.Features)
	}
	secure := XMPPConfig(specFor(MisconfigNone, ProtoXMPP, "Generic XMPP server"))
	if !secure.Features.RequireTLS || hasMech(secure.Features, "PLAIN") {
		t.Fatalf("secure config %+v", secure.Features)
	}
}

func hasMech(f xmpp.Features, m string) bool {
	return f.HasMechanism(m)
}

func TestCoAPConfigVariants(t *testing.T) {
	admin := CoAPConfig(specFor(CoAPNoAuthAdmin, ProtoCoAP, "NDM Router"))
	if admin.Banner != "220-Admin " {
		t.Fatalf("admin banner %q", admin.Banner)
	}
	open := CoAPConfig(specFor(CoAPNoAuth, ProtoCoAP, "NDM Router"))
	if open.Banner != "220 " && open.Banner != "x1C " {
		t.Fatalf("open banner %q", open.Banner)
	}
	reflector := CoAPConfig(specFor(CoAPReflector, ProtoCoAP, "NDM Router"))
	if reflector.Banner != "" {
		t.Fatalf("reflector banner %q", reflector.Banner)
	}
	// The model's characteristic resource is present.
	found := false
	for _, r := range reflector.Resources {
		if r.Path == "/ndm/login" {
			found = true
		}
	}
	if !found {
		t.Fatal("model resource missing")
	}
}

func TestTR069AndSMBConfigs(t *testing.T) {
	open := TR069Config(DeviceSpec{IP: 5, Misconfig: TR069NoAuth})
	if open.RequireAuth {
		t.Fatal("no-auth endpoint requires auth")
	}
	gated := TR069Config(DeviceSpec{IP: 5, Misconfig: MisconfigNone})
	if !gated.RequireAuth {
		t.Fatal("configured endpoint does not require auth")
	}
	if open.ServerBanner == "" {
		t.Fatal("no banner")
	}
	v1 := SMBConfig(DeviceSpec{Misconfig: SMBv1Enabled})
	if v1.Dialect != "NT LM 0.12" {
		t.Fatalf("v1 dialect %q", v1.Dialect)
	}
	v2 := SMBConfig(DeviceSpec{Misconfig: MisconfigNone})
	if v2.Dialect != "SMB 2.002" {
		t.Fatalf("v2 dialect %q", v2.Dialect)
	}
}

func TestExtensionSpecDensity(t *testing.T) {
	u := NewUniverse(UniverseConfig{
		Seed: 9, Prefix: netsim.MustParsePrefix("100.0.0.0/16"), DensityBoost: 50,
	})
	count := 0
	prefix := u.Config().Prefix
	for i := uint64(0); i < prefix.Size(); i++ {
		if _, ok := u.ExtensionSpec(prefix.Nth(i), ProtoTR069); ok {
			count++
		}
	}
	want := u.ExpectedExtensionExposed(ProtoTR069)
	if float64(count) < want*0.85 || float64(count) > want*1.15 {
		t.Fatalf("tr069 exposure %d, expected ~%.0f", count, want)
	}
	if _, ok := u.ExtensionSpec(netsim.MustParseIPv4("200.0.0.1"), ProtoTR069); ok {
		t.Fatal("extension spec outside prefix")
	}
	if _, ok := u.ExtensionSpec(prefix.Nth(0), ProtoTelnet); ok {
		t.Fatal("non-extension protocol accepted")
	}
}

func TestDeviceHostServesExtensionProtocols(t *testing.T) {
	u := NewUniverse(UniverseConfig{
		Seed: 9, Prefix: netsim.MustParsePrefix("100.0.0.0/16"), DensityBoost: 50,
	})
	prefix := u.Config().Prefix
	var ip netsim.IPv4
	var spec DeviceSpec
	found := false
	for i := uint64(0); i < prefix.Size(); i++ {
		if s, ok := u.ExtensionSpec(prefix.Nth(i), ProtoTR069); ok {
			if _, isPot := u.WildHoneypot(prefix.Nth(i)); isPot {
				continue
			}
			ip, spec, found = prefix.Nth(i), s, true
			break
		}
	}
	if !found {
		t.Fatal("no tr069 host")
	}
	host := u.Host(ip)
	handler := host.StreamService(7547)
	if handler == nil {
		t.Fatal("tr069 port closed")
	}
	client := netsim.Converse(handler.NewStepper(), 1, netsim.Endpoint{IP: ip, Port: 7547}, time.Now())
	defer client.Close()
	pr, err := tr069.Probe(client)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Unauthenticated != (spec.Misconfig == TR069NoAuth) {
		t.Fatalf("auth posture mismatch: %+v vs %v", pr, spec.Misconfig)
	}
}

func TestDeviceHostClosedPorts(t *testing.T) {
	u := testUniverse(500)
	spec := findSpec(t, u, ProtoTelnet, func(s DeviceSpec) bool { return true })
	host := u.Host(spec.IP)
	if host.StreamService(9999) != nil {
		t.Fatal("phantom TCP service")
	}
	if host.DatagramService(9999) != nil {
		t.Fatal("phantom UDP service")
	}
	// TCP port requested over UDP and vice versa.
	if host.DatagramService(u.TelnetPort(spec.IP)) != nil {
		t.Fatal("telnet served over UDP")
	}
}

func TestSMBHostNegotiatesDialect(t *testing.T) {
	u := NewUniverse(UniverseConfig{
		Seed: 9, Prefix: netsim.MustParsePrefix("100.0.0.0/15"), DensityBoost: 400,
	})
	prefix := u.Config().Prefix
	for i := uint64(0); i < prefix.Size(); i++ {
		ip := prefix.Nth(i)
		spec, ok := u.ExtensionSpec(ip, ProtoSMB)
		if !ok {
			continue
		}
		if _, isPot := u.WildHoneypot(ip); isPot {
			continue
		}
		host := u.Host(ip)
		handler := host.StreamService(445)
		if handler == nil {
			t.Fatal("smb port closed")
		}
		client := netsim.Converse(handler.NewStepper(), 1, netsim.Endpoint{IP: ip, Port: 445}, time.Now())
		dialect, err := smb.Probe(client)
		client.Close()
		if err != nil {
			t.Fatal(err)
		}
		wantV1 := spec.Misconfig == SMBv1Enabled
		if (dialect == "NT LM 0.12") != wantV1 {
			t.Fatalf("dialect %q for misconfig %v", dialect, spec.Misconfig)
		}
		return
	}
	t.Fatal("no smb host found")
}
