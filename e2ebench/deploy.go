package main

import (
	"fmt"

	"repro/internal/apps/scenario"
	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/msp"
	"repro/internal/relay"
)

// deployment is the paper's SWT→STL world over loopback TCP, either direct
// or through a chain of forwarding hub networks with one relay per hub.
// It is assembled from scenario.BuildWith and the public relay
// constructors, so every relay's transport can be decorated from outside.
type deployment struct {
	world   *scenario.TradeWorld
	hops    int
	relays  []*relay.Relay // SWT, hubs origin-side first, STL
	servers []*relay.TCPServer
}

// buildDeployment starts the world with hubs forwarding tiers. A non-nil
// tracer decorates every relay's transport and the source relay's driver;
// it records nothing until switched on.
func buildDeployment(hubs int, tr *tracer) (*deployment, error) {
	base := &relay.TCPTransport{}
	wrap := func(origin bool) relay.Transport {
		if tr == nil {
			return base
		}
		return &timedTransport{next: base, tr: tr, origin: origin}
	}
	registry := relay.NewStaticRegistry()
	w, err := scenario.BuildWith(registry, wrap(true))
	if err != nil {
		return nil, err
	}
	d := &deployment{world: w, hops: hubs}
	if tr != nil {
		w.STL.Relay.RegisterDriver(tradelens.NetworkID, &timedDriver{FabricDriver: w.STL.Driver, tr: tr})
	}
	serve := func(r *relay.Relay) (string, error) {
		srv, err := relay.NewTCPServer(r, "127.0.0.1:0")
		if err != nil {
			return "", fmt.Errorf("listen for %s relay: %w", r.LocalNetwork(), err)
		}
		d.servers = append(d.servers, srv)
		return srv.Addr(), nil
	}
	stlAddr, err := serve(w.STL.Relay)
	if err != nil {
		d.close()
		return nil, err
	}
	swtAddr, err := serve(w.SWT.Relay)
	if err != nil {
		d.close()
		return nil, err
	}
	registry.Register(wetrade.NetworkID, swtAddr)
	if hubs == 0 {
		registry.Register(tradelens.NetworkID, stlAddr)
		d.relays = []*relay.Relay{w.SWT.Relay, w.STL.Relay}
		return d, nil
	}
	// Tiers are built source-side first so each can register the address
	// of the one it forwards to. Discovery is partitioned per tier: the
	// only way to STL is the full walk.
	next, nextAddr := tradelens.NetworkID, stlAddr
	hubRelays := make([]*relay.Relay, hubs)
	for i := hubs - 1; i >= 0; i-- {
		id := scenario.HubNetworkID(i)
		tierReg := relay.NewStaticRegistry()
		tierReg.Register(next, nextAddr)
		routes := relay.NewRouteTable()
		if next != tradelens.NetworkID {
			routes.Set(tradelens.NetworkID, next)
		}
		ca, err := msp.NewCA(fmt.Sprintf("hub-%d-org", i+1))
		if err != nil {
			d.close()
			return nil, err
		}
		ident, err := ca.Issue(fmt.Sprintf("hub-%d-relay-0", i+1), msp.RolePeer)
		if err != nil {
			d.close()
			return nil, err
		}
		hub := relay.New(id, tierReg, wrap(false))
		hub.EnableForwarding(routes, ident)
		addr, err := serve(hub)
		if err != nil {
			d.close()
			return nil, err
		}
		hubRelays[i] = hub
		next, nextAddr = id, addr
	}
	registry.Register(next, nextAddr)
	routes := relay.NewRouteTable()
	routes.Set(tradelens.NetworkID, next)
	routes.SetMaxHops(uint64(hubs) + 1)
	w.SWT.Relay.SetRoutes(routes)
	d.relays = append(append([]*relay.Relay{w.SWT.Relay}, hubRelays...), w.STL.Relay)
	return d, nil
}

// stats sums the counters of every relay in the deployment.
func (d *deployment) stats() relay.Stats {
	var sum relay.Stats
	for _, r := range d.relays {
		sum = sum.Merge(r.Stats())
	}
	return sum
}

// close stops every listener and both orderers.
func (d *deployment) close() {
	for _, s := range d.servers {
		_ = s.Close()
	}
	_ = d.world.STL.Fabric.Orderer().Stop()
	_ = d.world.SWT.Fabric.Orderer().Stop()
}
