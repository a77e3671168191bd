//! Control groups: resource accounting and limits.
//!
//! CNTR assigns its attached process to the target container's cgroup
//! (paper §3.2.3: "the child process assigns itself to the cgroup, by
//! appropriately setting the /sys/ option") so that tool resource usage is
//! billed to the container. The one limit enforced is `pids.max`.

use cntr_types::{Errno, IdMap, Pid, SysResult};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

/// A cgroup's position in the hierarchy, e.g.
/// `/sys/fs/cgroup/docker/<container-id>`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CgroupPath(pub String);

impl CgroupPath {
    /// The root cgroup.
    pub fn root() -> CgroupPath {
        CgroupPath("/".to_string())
    }

    /// True if `self` is `other` or a descendant of it.
    pub fn is_within(&self, other: &CgroupPath) -> bool {
        if other.0 == "/" {
            return true;
        }
        self.0 == other.0 || self.0.starts_with(&format!("{}/", other.0))
    }
}

/// Resource limits attached to one cgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CgroupLimits {
    /// Max number of pids (`pids.max`), if set.
    pub pids_max: Option<u64>,
}

#[derive(Debug, Default)]
struct CgroupNode {
    limits: CgroupLimits,
    members: BTreeSet<Pid>,
}

/// The cgroup hierarchy of the simulated machine.
#[derive(Debug, Default)]
pub struct CgroupTree {
    nodes: BTreeMap<CgroupPath, CgroupNode>,
    /// Each member pid's cgroup, as Linux keeps `task->cgroups`: attach,
    /// exit and lookup touch one group, not the whole hierarchy.
    of: IdMap<Pid, CgroupPath>,
}

impl CgroupTree {
    /// Creates the hierarchy with only the root group.
    pub fn new() -> CgroupTree {
        let mut t = CgroupTree::default();
        t.nodes.insert(CgroupPath::root(), CgroupNode::default());
        t
    }

    /// Creates a cgroup (parents must exist, as with `mkdir` in cgroupfs).
    pub fn create(&mut self, path: &str) -> SysResult<CgroupPath> {
        if !path.starts_with('/') || path.contains("//") {
            return Err(Errno::EINVAL);
        }
        let path = CgroupPath(path.trim_end_matches('/').to_string());
        if path.0.is_empty() {
            return Err(Errno::EINVAL);
        }
        if self.nodes.contains_key(&path) {
            return Err(Errno::EEXIST);
        }
        if let Some((parent, _)) = path.0.rsplit_once('/') {
            let parent = if parent.is_empty() { "/" } else { parent };
            if !self.nodes.contains_key(&CgroupPath(parent.to_string())) {
                return Err(Errno::ENOENT);
            }
        }
        self.nodes.insert(path.clone(), CgroupNode::default());
        Ok(path)
    }

    /// Removes an empty cgroup.
    pub fn remove(&mut self, path: &CgroupPath) -> SysResult<()> {
        let node = self.nodes.get(path).ok_or(Errno::ENOENT)?;
        if !node.members.is_empty() {
            return Err(Errno::EBUSY);
        }
        // Descendants are the keys right after `<path>/` (`/ab` sorts
        // after every `/a/…`); no key ends in `/`, the root's excepted.
        let prefix = format!("{}/", path.0.trim_end_matches('/'));
        let has_children = self
            .nodes
            .range((Excluded(CgroupPath(prefix.clone())), Unbounded))
            .next()
            .is_some_and(|(p, _)| p.0.starts_with(&prefix));
        if has_children {
            return Err(Errno::EBUSY);
        }
        self.nodes.remove(path);
        Ok(())
    }

    /// Moves a process into a cgroup (writing to `cgroup.procs`).
    pub fn attach(&mut self, pid: Pid, path: &CgroupPath) -> SysResult<()> {
        if !self.nodes.contains_key(path) {
            return Err(Errno::ENOENT);
        }
        if let Some(limit) = self.nodes[path].limits.pids_max {
            if self.nodes[path].members.len() as u64 >= limit {
                return Err(Errno::EAGAIN);
            }
        }
        self.detach_everywhere(pid);
        self.nodes
            .get_mut(path)
            .expect("checked above")
            .members
            .insert(pid);
        self.of.insert(pid, path.clone());
        Ok(())
    }

    /// Removes a process from its cgroup (process exit).
    pub fn detach_everywhere(&mut self, pid: Pid) {
        if let Some(old) = self.of.remove(&pid) {
            if let Some(node) = self.nodes.get_mut(&old) {
                node.members.remove(&pid);
            }
        }
    }

    /// The cgroup a process currently belongs to.
    pub fn cgroup_of(&self, pid: Pid) -> Option<CgroupPath> {
        self.of.get(&pid).cloned()
    }

    /// Sets limits on a cgroup.
    pub fn set_limits(&mut self, path: &CgroupPath, limits: CgroupLimits) -> SysResult<()> {
        self.nodes
            .get_mut(path)
            .map(|n| n.limits = limits)
            .ok_or(Errno::ENOENT)
    }

    /// Reads limits of a cgroup.
    pub fn limits(&self, path: &CgroupPath) -> SysResult<CgroupLimits> {
        self.nodes.get(path).map(|n| n.limits).ok_or(Errno::ENOENT)
    }

    /// Member pids of a cgroup.
    pub fn members(&self, path: &CgroupPath) -> SysResult<Vec<Pid>> {
        self.nodes
            .get(path)
            .map(|n| n.members.iter().copied().collect())
            .ok_or(Errno::ENOENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_requires_parent() {
        let mut t = CgroupTree::new();
        assert_eq!(t.create("/a/b"), Err(Errno::ENOENT));
        t.create("/a").unwrap();
        t.create("/a/b").unwrap();
        assert_eq!(t.create("/a"), Err(Errno::EEXIST));
    }

    #[test]
    fn attach_moves_between_groups() {
        let mut t = CgroupTree::new();
        let a = t.create("/a").unwrap();
        let b = t.create("/b").unwrap();
        t.attach(Pid(10), &a).unwrap();
        assert_eq!(t.cgroup_of(Pid(10)), Some(a.clone()));
        t.attach(Pid(10), &b).unwrap();
        assert_eq!(t.cgroup_of(Pid(10)), Some(b.clone()));
        assert!(t.members(&a).unwrap().is_empty());
    }

    #[test]
    fn remove_refuses_busy() {
        let mut t = CgroupTree::new();
        let a = t.create("/a").unwrap();
        t.attach(Pid(1), &a).unwrap();
        assert_eq!(t.remove(&a), Err(Errno::EBUSY));
        t.detach_everywhere(Pid(1));
        t.create("/a/kid").unwrap();
        assert_eq!(t.remove(&a), Err(Errno::EBUSY));
        t.remove(&CgroupPath("/a/kid".into())).unwrap();
        t.remove(&a).unwrap();
    }

    #[test]
    fn remove_beside_a_sibling_sharing_its_prefix() {
        let mut t = CgroupTree::new();
        let a = t.create("/a").unwrap();
        let ab = t.create("/ab").unwrap();
        t.create("/ab/kid").unwrap();
        t.remove(&a).unwrap();
        assert_eq!(t.remove(&ab), Err(Errno::EBUSY), "/ab still has a child");
        assert_eq!(t.remove(&CgroupPath::root()), Err(Errno::EBUSY));
    }

    #[test]
    fn pids_max_enforced() {
        let mut t = CgroupTree::new();
        let a = t.create("/a").unwrap();
        t.set_limits(&a, CgroupLimits { pids_max: Some(1) })
            .unwrap();
        t.attach(Pid(1), &a).unwrap();
        assert_eq!(t.attach(Pid(2), &a), Err(Errno::EAGAIN));
    }

    #[test]
    fn is_within_hierarchy() {
        let a = CgroupPath("/docker/abc".to_string());
        assert!(a.is_within(&CgroupPath::root()));
        assert!(a.is_within(&CgroupPath("/docker".into())));
        assert!(!a.is_within(&CgroupPath("/dock".into())));
    }
}
