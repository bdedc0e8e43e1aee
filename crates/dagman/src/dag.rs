//! DAG definition and the HTCondor DAGMan input-file dialect.
//!
//! A DAG is a set of named nodes, each carrying a job specification, plus
//! parent→child edges. The text format accepted by [`Dag::parse`] is the
//! subset of the DAGMan language the FDW generates:
//!
//! ```text
//! JOB <name> <submit-file>
//! PARENT <p1> [p2 ...] CHILD <c1> [c2 ...]
//! RETRY <name> <max-retries> [DEFER <seconds>]
//! ABORT-DAG-ON <name> <exit-code>
//! MAXJOBS <n>        # extension: per-DAG running-job throttle
//! MAXIDLE <n>        # extension: per-DAG idle-job throttle
//! ```
//!
//! `RETRY ... DEFER` is the base of an exponential backoff: attempt *k*
//! waits `defer * 2^(k-1)` seconds (plus deterministic jitter) before the
//! node re-enters the ready set. `ABORT-DAG-ON` stops the whole DAG when
//! the named node exits with the given code.

use std::collections::{HashMap, HashSet, VecDeque};

use htcsim::job::JobSpec;

/// Index of a node within its DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// One DAG node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node name (unique within the DAG).
    pub name: String,
    /// The job this node runs.
    pub spec: JobSpec,
    /// Maximum retries after removal/failure.
    pub retries: u32,
    /// Base backoff delay in seconds between retries (DAGMan's
    /// `RETRY ... DEFER`); 0 retries immediately. Attempt *k* waits
    /// `retry_defer_s * 2^(k-1)` seconds plus deterministic jitter.
    pub retry_defer_s: u64,
    /// Abort the whole DAG if this node exits with this code
    /// (`ABORT-DAG-ON`).
    pub abort_dag_on: Option<i32>,
    /// Submission priority (higher submits first among ready nodes),
    /// mirroring DAGMan's `PRIORITY` keyword. Among nodes of equal
    /// priority the most recently readied submits first.
    pub priority: i32,
    /// Parent node ids.
    pub parents: Vec<NodeId>,
    /// Child node ids.
    pub children: Vec<NodeId>,
}

/// Throttling limits, mirroring `condor_submit_dag -maxjobs/-maxidle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Throttles {
    /// Maximum nodes simultaneously submitted-and-unfinished (0 = unlimited).
    pub max_jobs: usize,
    /// Maximum nodes sitting idle in the queue (0 = unlimited).
    pub max_idle: usize,
}

impl Default for Throttles {
    fn default() -> Self {
        // OSG guidance: keep ~1000 idle jobs per submitter.
        Self {
            max_jobs: 0,
            max_idle: 1000,
        }
    }
}

/// A directed acyclic graph of jobs.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    nodes: Vec<Node>,
    by_name: HashMap<String, NodeId>,
    /// Throttles for this DAG.
    pub throttles: Throttles,
}

impl Dag {
    /// Create an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; errors on duplicate names.
    pub fn add_node(&mut self, spec: JobSpec) -> Result<NodeId, String> {
        let name = spec.name.clone();
        if self.by_name.contains_key(&name) {
            return Err(format!("duplicate node name '{name}'"));
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.clone(),
            spec,
            retries: 0,
            retry_defer_s: 0,
            abort_dag_on: None,
            priority: 0,
            parents: Vec::new(),
            children: Vec::new(),
        });
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Add a dependency edge `parent → child`; errors on unknown ids,
    /// self-edges or duplicates.
    pub fn add_edge(&mut self, parent: NodeId, child: NodeId) -> Result<(), String> {
        if parent == child {
            return Err(format!("self-edge on node {}", self.nodes[parent.0].name));
        }
        if parent.0 >= self.nodes.len() || child.0 >= self.nodes.len() {
            return Err("edge references unknown node".into());
        }
        if self.nodes[parent.0].children.contains(&child) {
            return Ok(()); // idempotent, like DAGMan
        }
        self.nodes[parent.0].children.push(child);
        self.nodes[child.0].parents.push(parent);
        Ok(())
    }

    /// Set the retry budget of a node.
    pub fn set_retries(&mut self, node: NodeId, retries: u32) {
        self.nodes[node.0].retries = retries;
    }

    /// Set the base retry backoff of a node (`RETRY ... DEFER`).
    pub fn set_retry_defer(&mut self, node: NodeId, defer_s: u64) {
        self.nodes[node.0].retry_defer_s = defer_s;
    }

    /// Abort the whole DAG when `node` exits with `code` (`ABORT-DAG-ON`).
    pub fn set_abort_dag_on(&mut self, node: NodeId, code: i32) {
        self.nodes[node.0].abort_dag_on = Some(code);
    }

    /// Set the submission priority of a node (DAGMan `PRIORITY`).
    pub fn set_priority(&mut self, node: NodeId, priority: i32) {
        self.nodes[node.0].priority = priority;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Look up a node id by name.
    pub fn id_of(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Nodes with no parents (the initial ready set).
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|id| self.nodes[id.0].parents.is_empty())
            .collect()
    }

    /// Validate acyclicity via Kahn's algorithm; returns a topological
    /// order or an error naming a node on a cycle.
    pub fn topological_order(&self) -> Result<Vec<NodeId>, String> {
        let mut indeg: Vec<usize> = self.nodes.iter().map(|n| n.parents.len()).collect();
        let mut queue: VecDeque<NodeId> = (0..self.nodes.len())
            .map(NodeId)
            .filter(|id| indeg[id.0] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for &c in &self.nodes[id.0].children {
                indeg[c.0] -= 1;
                if indeg[c.0] == 0 {
                    queue.push_back(c);
                }
            }
        }
        if order.len() != self.nodes.len() {
            let stuck = (0..self.nodes.len())
                .find(|i| indeg[*i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .unwrap_or_default();
            return Err(format!("cycle detected involving node '{stuck}'"));
        }
        Ok(order)
    }

    /// Serialise to the DAGMan input dialect. Node specs are referenced by
    /// `<name>.sub` since submit files live outside the DAG file.
    pub fn to_dag_file(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            out.push_str(&format!("JOB {} {}.sub\n", n.name, n.name));
        }
        for n in &self.nodes {
            if !n.children.is_empty() {
                let children: Vec<&str> = n
                    .children
                    .iter()
                    .map(|c| self.nodes[c.0].name.as_str())
                    .collect();
                out.push_str(&format!("PARENT {} CHILD {}\n", n.name, children.join(" ")));
            }
        }
        for n in &self.nodes {
            if n.retries > 0 {
                if n.retry_defer_s > 0 {
                    out.push_str(&format!(
                        "RETRY {} {} DEFER {}\n",
                        n.name, n.retries, n.retry_defer_s
                    ));
                } else {
                    out.push_str(&format!("RETRY {} {}\n", n.name, n.retries));
                }
            }
        }
        for n in &self.nodes {
            if let Some(code) = n.abort_dag_on {
                out.push_str(&format!("ABORT-DAG-ON {} {}\n", n.name, code));
            }
        }
        for n in &self.nodes {
            if n.priority != 0 {
                out.push_str(&format!("PRIORITY {} {}\n", n.name, n.priority));
            }
        }
        if self.throttles.max_jobs > 0 {
            out.push_str(&format!("MAXJOBS {}\n", self.throttles.max_jobs));
        }
        if self.throttles.max_idle > 0 {
            out.push_str(&format!("MAXIDLE {}\n", self.throttles.max_idle));
        }
        out
    }

    /// Parse the DAGMan dialect. `spec_of` supplies the job spec for each
    /// node name (standing in for reading the `.sub` file).
    pub fn parse(text: &str, mut spec_of: impl FnMut(&str) -> JobSpec) -> Result<Self, String> {
        let mut dag = Dag::new();
        let mut edges: Vec<(Vec<String>, Vec<String>)> = Vec::new();
        let mut retries: Vec<(String, u32, u64)> = Vec::new();
        let mut aborts: Vec<(String, i32)> = Vec::new();
        let mut priorities: Vec<(String, i32)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut toks = line.split_whitespace();
            let keyword = toks.next().unwrap().to_ascii_uppercase();
            match keyword.as_str() {
                "JOB" => {
                    let name = toks
                        .next()
                        .ok_or_else(|| format!("line {}: JOB needs a name", lineno + 1))?;
                    // The submit-file token is accepted and ignored.
                    let _submit = toks.next();
                    dag.add_node(spec_of(name))
                        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                }
                "PARENT" => {
                    let rest: Vec<String> = toks.map(str::to_string).collect();
                    let split = rest
                        .iter()
                        .position(|t| t.eq_ignore_ascii_case("CHILD"))
                        .ok_or_else(|| format!("line {}: PARENT without CHILD", lineno + 1))?;
                    let parents = rest[..split].to_vec();
                    let children = rest[split + 1..].to_vec();
                    if parents.is_empty() || children.is_empty() {
                        return Err(format!(
                            "line {}: PARENT/CHILD lists cannot be empty",
                            lineno + 1
                        ));
                    }
                    edges.push((parents, children));
                }
                "RETRY" => {
                    let name = toks
                        .next()
                        .ok_or_else(|| format!("line {}: RETRY needs a name", lineno + 1))?;
                    let n: u32 = toks
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| format!("line {}: RETRY needs a count", lineno + 1))?;
                    let defer = match toks.next() {
                        None => 0,
                        Some(t) if t.eq_ignore_ascii_case("DEFER") => toks
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| format!("line {}: DEFER needs seconds", lineno + 1))?,
                        Some(other) => {
                            return Err(format!(
                                "line {}: unexpected RETRY token '{other}'",
                                lineno + 1
                            ))
                        }
                    };
                    retries.push((name.to_string(), n, defer));
                }
                "ABORT-DAG-ON" => {
                    let name = toks
                        .next()
                        .ok_or_else(|| format!("line {}: ABORT-DAG-ON needs a name", lineno + 1))?;
                    let code: i32 = toks.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                        format!("line {}: ABORT-DAG-ON needs an exit code", lineno + 1)
                    })?;
                    aborts.push((name.to_string(), code));
                }
                "PRIORITY" => {
                    let name = toks
                        .next()
                        .ok_or_else(|| format!("line {}: PRIORITY needs a name", lineno + 1))?;
                    let p: i32 = toks
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| format!("line {}: PRIORITY needs a value", lineno + 1))?;
                    priorities.push((name.to_string(), p));
                }
                "MAXJOBS" => {
                    dag.throttles.max_jobs = toks
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| format!("line {}: MAXJOBS needs a count", lineno + 1))?;
                }
                "MAXIDLE" => {
                    dag.throttles.max_idle = toks
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| format!("line {}: MAXIDLE needs a count", lineno + 1))?;
                }
                other => return Err(format!("line {}: unknown keyword '{other}'", lineno + 1)),
            }
        }
        for (parents, children) in edges {
            for p in &parents {
                let pid = dag
                    .id_of(p)
                    .ok_or_else(|| format!("PARENT references unknown node '{p}'"))?;
                for c in &children {
                    let cid = dag
                        .id_of(c)
                        .ok_or_else(|| format!("CHILD references unknown node '{c}'"))?;
                    dag.add_edge(pid, cid)?;
                }
            }
        }
        for (name, n, defer) in retries {
            let id = dag
                .id_of(&name)
                .ok_or_else(|| format!("RETRY references unknown node '{name}'"))?;
            dag.set_retries(id, n);
            dag.set_retry_defer(id, defer);
        }
        for (name, code) in aborts {
            let id = dag
                .id_of(&name)
                .ok_or_else(|| format!("ABORT-DAG-ON references unknown node '{name}'"))?;
            dag.set_abort_dag_on(id, code);
        }
        for (name, p) in priorities {
            let id = dag
                .id_of(&name)
                .ok_or_else(|| format!("PRIORITY references unknown node '{name}'"))?;
            dag.set_priority(id, p);
        }
        // Reject cyclic inputs at parse time, like condor_submit_dag does.
        dag.topological_order()?;
        Ok(dag)
    }

    /// The set of node names reachable from `from` (descendants).
    pub fn descendants(&self, from: NodeId) -> HashSet<NodeId> {
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        while let Some(id) = stack.pop() {
            for &c in &self.nodes[id.0].children {
                if seen.insert(c) {
                    stack.push(c);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> JobSpec {
        JobSpec::fixed(name, 60.0)
    }

    fn diamond() -> Dag {
        let mut d = Dag::new();
        let a = d.add_node(spec("A")).unwrap();
        let b = d.add_node(spec("B")).unwrap();
        let c = d.add_node(spec("C")).unwrap();
        let e = d.add_node(spec("D")).unwrap();
        d.add_edge(a, b).unwrap();
        d.add_edge(a, c).unwrap();
        d.add_edge(b, e).unwrap();
        d.add_edge(c, e).unwrap();
        d
    }

    #[test]
    fn build_and_query() {
        let d = diamond();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.roots(), vec![NodeId(0)]);
        assert_eq!(d.id_of("C"), Some(NodeId(2)));
        assert_eq!(d.node(NodeId(3)).parents.len(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut d = Dag::new();
        d.add_node(spec("A")).unwrap();
        assert!(d.add_node(spec("A")).is_err());
    }

    #[test]
    fn self_edge_rejected_and_duplicate_edges_idempotent() {
        let mut d = Dag::new();
        let a = d.add_node(spec("A")).unwrap();
        let b = d.add_node(spec("B")).unwrap();
        assert!(d.add_edge(a, a).is_err());
        d.add_edge(a, b).unwrap();
        d.add_edge(a, b).unwrap();
        assert_eq!(d.node(a).children.len(), 1);
        assert_eq!(d.node(b).parents.len(), 1);
    }

    #[test]
    fn topological_order_respects_edges() {
        let d = diamond();
        let order = d.topological_order().unwrap();
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for n in 0..d.len() {
            for &c in &d.node(NodeId(n)).children {
                assert!(pos[&NodeId(n)] < pos[&c]);
            }
        }
    }

    #[test]
    fn cycle_detected() {
        let mut d = Dag::new();
        let a = d.add_node(spec("A")).unwrap();
        let b = d.add_node(spec("B")).unwrap();
        d.add_edge(a, b).unwrap();
        d.add_edge(b, a).unwrap();
        let err = d.topological_order().unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn dag_file_roundtrip() {
        let mut d = diamond();
        d.set_retries(NodeId(3), 2);
        d.set_retries(NodeId(1), 3);
        d.set_retry_defer(NodeId(1), 120);
        d.set_abort_dag_on(NodeId(0), 2);
        d.throttles = Throttles {
            max_jobs: 100,
            max_idle: 500,
        };
        let text = d.to_dag_file();
        assert!(text.contains("JOB A A.sub"));
        assert!(text.contains("PARENT A CHILD B C"));
        assert!(text.contains("RETRY D 2"));
        assert!(text.contains("RETRY B 3 DEFER 120"));
        assert!(text.contains("ABORT-DAG-ON A 2"));
        let parsed = Dag::parse(&text, spec).unwrap();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed.node(parsed.id_of("D").unwrap()).retries, 2);
        assert_eq!(parsed.node(parsed.id_of("D").unwrap()).retry_defer_s, 0);
        assert_eq!(parsed.node(parsed.id_of("B").unwrap()).retries, 3);
        assert_eq!(parsed.node(parsed.id_of("B").unwrap()).retry_defer_s, 120);
        assert_eq!(
            parsed.node(parsed.id_of("A").unwrap()).abort_dag_on,
            Some(2)
        );
        assert_eq!(parsed.throttles.max_jobs, 100);
        assert_eq!(parsed.throttles.max_idle, 500);
        assert_eq!(parsed.node(parsed.id_of("D").unwrap()).parents.len(), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(Dag::parse("JOB", spec).is_err());
        assert!(Dag::parse("PARENT A B", spec).is_err()); // no CHILD
        assert!(Dag::parse("FROB A", spec).is_err());
        assert!(Dag::parse("JOB A a.sub\nRETRY A x", spec).is_err());
        assert!(Dag::parse("JOB A a.sub\nRETRY A 2 DEFER", spec).is_err());
        assert!(Dag::parse("JOB A a.sub\nRETRY A 2 BOGUS 5", spec).is_err());
        assert!(Dag::parse("JOB A a.sub\nABORT-DAG-ON A", spec).is_err());
        assert!(Dag::parse("ABORT-DAG-ON Z 2", spec).is_err());
        assert!(Dag::parse("JOB A a.sub\nPARENT A CHILD Z", spec).is_err());
        assert!(Dag::parse("PARENT CHILD", spec).is_err());
        // Cyclic input rejected at parse.
        let cyclic = "JOB A a\nJOB B b\nPARENT A CHILD B\nPARENT B CHILD A\n";
        assert!(Dag::parse(cyclic, spec).is_err());
    }

    #[test]
    fn parse_skips_comments_and_case() {
        let text = "# header\njob A a.sub # trailing\nJOB B b.sub\nparent A child B\n";
        let d = Dag::parse(text, spec).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.node(d.id_of("A").unwrap()).children.len(), 1);
    }

    #[test]
    fn descendants_of_root_is_everything_else() {
        let d = diamond();
        let desc = d.descendants(NodeId(0));
        assert_eq!(desc.len(), 3);
        assert!(!desc.contains(&NodeId(0)));
        assert!(d.descendants(NodeId(3)).is_empty());
    }

    #[test]
    fn default_throttles_match_osg_guidance() {
        let t = Throttles::default();
        assert_eq!(t.max_idle, 1000);
        assert_eq!(t.max_jobs, 0);
    }
}
