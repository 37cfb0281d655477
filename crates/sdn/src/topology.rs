//! Topology construction: switches, hosts, links, and controller wiring.

use dp_replay::EventLog;
use dp_types::{tuple, DetRng, LogicalTime, NodeId, Sym, Tuple, Value};

/// A network topology under one controller.
///
/// Ports are assigned per switch in declaration order. The topology knows
/// how to emit its base tuples — `link`, `host`, and the `hello` handshakes
/// that bring switches up at the controller — into an [`EventLog`].
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Controller node name.
    pub controller: String,
    switches: Vec<String>,
    hosts: Vec<String>,
    /// (switch, port, peer-switch)
    links: Vec<(String, i64, String)>,
    /// (switch, port, host)
    host_links: Vec<(String, i64, String)>,
    next_port: std::collections::BTreeMap<String, i64>,
}

impl Topology {
    /// A topology managed by `controller`.
    pub fn new(controller: &str) -> Self {
        Topology {
            controller: controller.to_string(),
            ..Default::default()
        }
    }

    /// Declares a switch.
    pub fn switch(&mut self, name: &str) -> &mut Self {
        self.switches.push(name.to_string());
        self
    }

    /// Declares several switches.
    pub fn switches(&mut self, names: &[&str]) -> &mut Self {
        for n in names {
            self.switch(n);
        }
        self
    }

    fn alloc_port(&mut self, sw: &str) -> i64 {
        let p = self.next_port.entry(sw.to_string()).or_insert(1);
        let port = *p;
        *p += 1;
        port
    }

    /// Connects two switches with a bidirectional link; returns the
    /// (a-side, b-side) port numbers.
    pub fn link(&mut self, a: &str, b: &str) -> (i64, i64) {
        let pa = self.alloc_port(a);
        let pb = self.alloc_port(b);
        self.links.push((a.to_string(), pa, b.to_string()));
        self.links.push((b.to_string(), pb, a.to_string()));
        (pa, pb)
    }

    /// Attaches a host to a switch; returns the switch-side port.
    pub fn host(&mut self, sw: &str, host: &str) -> i64 {
        let p = self.alloc_port(sw);
        self.hosts.push(host.to_string());
        self.host_links.push((sw.to_string(), p, host.to_string()));
        p
    }

    /// The switch-side port leading from `a` towards `b` (switch or host).
    ///
    /// Panics if the nodes are not adjacent — topology wiring errors are
    /// construction-time bugs.
    pub fn port_towards(&self, a: &str, b: &str) -> i64 {
        self.links
            .iter()
            .find(|(s, _, n)| s == a && n == b)
            .map(|(_, p, _)| *p)
            .or_else(|| {
                self.host_links
                    .iter()
                    .find(|(s, _, h)| s == a && h == b)
                    .map(|(_, p, _)| *p)
            })
            .unwrap_or_else(|| panic!("no link {a} -> {b}"))
    }

    /// All declared switches.
    pub fn switch_names(&self) -> &[String] {
        &self.switches
    }

    /// Neighbor switches of `sw`.
    pub fn neighbors(&self, sw: &str) -> Vec<&str> {
        self.links
            .iter()
            .filter(|(s, _, _)| s == sw)
            .map(|(_, _, n)| n.as_str())
            .collect()
    }

    /// Emits the topology's base tuples into `log`, starting at `t0`:
    /// `link` and `host` wiring plus one `hello` per switch (which derives
    /// `switchUp` at the controller).
    pub fn emit(&self, log: &mut EventLog, t0: LogicalTime) {
        for (sw, port, next) in &self.links {
            log.insert(t0, NodeId::new(sw), tuple!("link", *port, next.as_str()));
        }
        for (sw, port, host) in &self.host_links {
            log.insert(t0, NodeId::new(sw), tuple!("host", *port, host.as_str()));
        }
        for (i, sw) in self.switches.iter().enumerate() {
            let hello = Tuple::new(
                "hello",
                vec![Value::Int(i as i64), Value::Str(Sym::new(&self.controller))],
            );
            log.insert(t0, NodeId::new(sw), hello);
        }
    }

    /// A seeded random topology: `n` switches named `S0..S{n-1}` wired
    /// into a random spanning tree (switch `Si` links to a random earlier
    /// switch, so the network is always connected) plus `extra` additional
    /// random links between non-adjacent switches. Hosts are *not*
    /// attached — callers place them, because host placement is policy
    /// (the simulation harness pins its destination and backup hosts to
    /// specific switches it draws separately).
    ///
    /// Construction draws from `rng` in a fixed order (tree parents first,
    /// then extra-link endpoints), so one seed always yields one wiring —
    /// the property the fault-injection harness's reproducibility rests
    /// on.
    pub fn random(rng: &mut DetRng, controller: &str, n: usize, extra: usize) -> Self {
        assert!(n >= 2, "a random topology needs at least two switches");
        let names: Vec<String> = (0..n).map(|i| format!("S{i}")).collect();
        let mut topo = Topology::new(controller);
        for name in &names {
            topo.switch(name);
        }
        for i in 1..n {
            let parent = rng.gen_range_usize(0, i);
            topo.link(&names[i], &names[parent]);
        }
        for _ in 0..extra {
            let a = rng.gen_range_usize(0, n);
            let b = rng.gen_range_usize(0, n);
            if a != b && !topo.neighbors(&names[a]).contains(&names[b].as_str()) {
                topo.link(&names[a], &names[b]);
            }
        }
        topo
    }

    /// Shortest-path next hop from `from` towards destination node `to`
    /// (switch or host), by BFS over switch links. Returns the neighbor
    /// name, or `None` if unreachable.
    pub fn next_hop(&self, from: &str, to: &str) -> Option<String> {
        if self
            .host_links
            .iter()
            .any(|(s, _, h)| s == from && h == to)
        {
            return Some(to.to_string());
        }
        // BFS from `from` over switches; a host is terminal.
        let target_switch: Option<&str> = if self.switches.iter().any(|s| s == to) {
            Some(to)
        } else {
            self.host_links
                .iter()
                .find(|(_, _, h)| h == to)
                .map(|(s, _, _)| s.as_str())
        };
        let target = target_switch?;
        if from == target {
            return Some(to.to_string());
        }
        let mut queue = std::collections::VecDeque::new();
        let mut prev: std::collections::BTreeMap<&str, &str> = Default::default();
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            for n in self.neighbors(cur) {
                if n != from && !prev.contains_key(n) {
                    prev.insert(n, cur);
                    if n == target {
                        // Walk back to the first hop.
                        let mut hop = n;
                        while prev[hop] != from {
                            hop = prev[hop];
                        }
                        return Some(hop.to_string());
                    }
                    queue.push_back(n);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Topology {
        let mut t = Topology::new("ctl");
        t.switches(&["S1", "S2", "S3"]);
        t.link("S1", "S2");
        t.link("S2", "S3");
        t.host("S3", "web1");
        t
    }

    #[test]
    fn ports_are_allocated_in_order() {
        let t = line3();
        assert_eq!(t.port_towards("S1", "S2"), 1);
        assert_eq!(t.port_towards("S2", "S1"), 1);
        assert_eq!(t.port_towards("S2", "S3"), 2);
        assert_eq!(t.port_towards("S3", "web1"), 2);
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn missing_link_panics() {
        line3().port_towards("S1", "S3");
    }

    #[test]
    fn next_hop_walks_shortest_path() {
        let t = line3();
        assert_eq!(t.next_hop("S1", "web1").as_deref(), Some("S2"));
        assert_eq!(t.next_hop("S2", "web1").as_deref(), Some("S3"));
        assert_eq!(t.next_hop("S3", "web1").as_deref(), Some("web1"));
        assert_eq!(t.next_hop("S1", "nosuch"), None);
    }

    #[test]
    fn emit_writes_links_hosts_and_hellos() {
        let t = line3();
        let mut log = EventLog::new();
        t.emit(&mut log, 0);
        // 2 links * 2 directions + 1 host + 3 hellos = 8 events.
        assert_eq!(log.len(), 8);
    }

    #[test]
    fn random_topologies_are_connected_and_reproducible() {
        for seed in 0..32u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let n = rng.gen_range_usize(2, 9);
            let extra = rng.gen_range_usize(0, 4);
            let t = Topology::random(&mut rng, "ctl", n, extra);
            assert_eq!(t.switch_names().len(), n);
            // Spanning tree ⇒ every switch reaches every other.
            for a in t.switch_names() {
                for b in t.switch_names() {
                    if a != b {
                        assert!(
                            t.next_hop(a, b).is_some(),
                            "seed {seed}: {a} cannot reach {b}"
                        );
                    }
                }
            }
            // Same seed, same wiring — byte for byte.
            let mut rng2 = DetRng::seed_from_u64(seed);
            let n2 = rng2.gen_range_usize(2, 9);
            let extra2 = rng2.gen_range_usize(0, 4);
            let t2 = Topology::random(&mut rng2, "ctl", n2, extra2);
            let mut log = EventLog::new();
            let mut log2 = EventLog::new();
            t.emit(&mut log, 0);
            t2.emit(&mut log2, 0);
            assert_eq!(log.events(), log2.events(), "seed {seed} not reproducible");
        }
    }
}
