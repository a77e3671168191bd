//! Process credentials: identity and capabilities. The simulated kernel
//! has no LSM: confinement is the capability bounding set.

use cntr_types::{CapSet, Gid, Uid};

/// The security context of a process.
///
/// CNTR applies the target container's bounding set to the attached
/// process (paper §3.2.1 also copies its AppArmor/SELinux options, which
/// this kernel does not model) so that tools run with no more than the
/// container's capabilities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credentials {
    /// Effective user id.
    pub uid: Uid,
    /// Effective group id.
    pub gid: Gid,
    /// Supplementary groups.
    pub groups: Vec<Gid>,
    /// Effective capability set.
    pub caps: CapSet,
    /// Capability bounding set (an upper bound `caps` can never exceed).
    pub bounding: CapSet,
}

impl Credentials {
    /// Root in the initial user namespace: all capabilities, unconfined.
    pub fn host_root() -> Credentials {
        Credentials {
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            groups: Vec::new(),
            caps: CapSet::full(),
            bounding: CapSet::full(),
        }
    }

    /// Root inside a default Docker container: uid 0 but the Docker bounding
    /// set.
    pub fn container_root() -> Credentials {
        Credentials {
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            groups: Vec::new(),
            caps: CapSet::docker_default(),
            bounding: CapSet::docker_default(),
        }
    }

    /// Returns true if the process holds `cap`.
    pub fn has_cap(&self, cap: cntr_types::Capability) -> bool {
        self.caps.has(cap)
    }

    /// Drops the credentials to another context's bounding set — what CNTR
    /// does in step #3 before handing the shell to the user ("CNTR drops
    /// the capabilities by applying the AppArmor/SELinux profile", §3.2.3;
    /// with no LSM here, the bounding set is what applies).
    pub fn confine_to(&mut self, other: &Credentials) {
        self.caps = self.caps.intersect(other.bounding);
        self.bounding = self.bounding.intersect(other.bounding);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_types::Capability;

    #[test]
    fn host_root_is_all_powerful() {
        let c = Credentials::host_root();
        assert!(c.has_cap(Capability::SysAdmin));
        assert!(c.has_cap(Capability::SysPtrace));
    }

    #[test]
    fn container_root_is_bounded() {
        let c = Credentials::container_root();
        assert!(!c.has_cap(Capability::SysAdmin));
        assert!(c.has_cap(Capability::Chown));
    }

    #[test]
    fn confine_to_never_gains_capabilities() {
        let mut attacker = Credentials::host_root();
        let container = Credentials::container_root();
        attacker.confine_to(&container);
        assert!(!attacker.has_cap(Capability::SysAdmin));
        assert!(attacker.caps.subset_of(container.bounding));
        // Confining twice is idempotent.
        let snapshot = attacker.clone();
        attacker.confine_to(&container);
        assert_eq!(attacker, snapshot);
    }
}
