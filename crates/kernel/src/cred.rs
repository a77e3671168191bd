//! Process credentials: identity, capabilities, and LSM confinement.

use cntr_types::{CapSet, Gid, Uid};

/// The security context of a process.
///
/// CNTR copies all of this from the target container onto the attached
/// process (paper §3.2.1: namespaces, user/group id mapping, capabilities,
/// AppArmor/SELinux options) so that tools run with exactly the container's
/// privileges.
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
    /// Mandatory-access-control profile (AppArmor profile name or SELinux
    /// label), if confined.
    pub lsm_profile: Option<String>,
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
            lsm_profile: None,
        }
    }

    /// Root inside a default Docker container: uid 0 but the Docker bounding
    /// set and a container AppArmor profile.
    pub fn container_root(profile: &str) -> Credentials {
        Credentials {
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            groups: Vec::new(),
            caps: CapSet::docker_default(),
            bounding: CapSet::docker_default(),
            lsm_profile: Some(profile.to_string()),
        }
    }

    /// Returns true if the process holds `cap`.
    pub fn has_cap(&self, cap: cntr_types::Capability) -> bool {
        self.caps.has(cap)
    }

    /// Drops the credentials to another context's bounding set and profile —
    /// what CNTR does in step #3 before handing the shell to the user
    /// ("CNTR drops the capabilities by applying the AppArmor/SELinux
    /// profile", §3.2.3).
    pub fn confine_to(&mut self, other: &Credentials) {
        self.caps = self.caps.intersect(other.bounding);
        self.bounding = self.bounding.intersect(other.bounding);
        self.lsm_profile = other.lsm_profile.clone();
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
        assert!(c.lsm_profile.is_none());
    }

    #[test]
    fn container_root_is_bounded() {
        let c = Credentials::container_root("docker-default");
        assert!(!c.has_cap(Capability::SysAdmin));
        assert!(c.has_cap(Capability::Chown));
        assert_eq!(c.lsm_profile.as_deref(), Some("docker-default"));
    }

    #[test]
    fn confine_to_never_gains_capabilities() {
        let mut attacker = Credentials::host_root();
        let container = Credentials::container_root("docker-default");
        attacker.confine_to(&container);
        assert!(!attacker.has_cap(Capability::SysAdmin));
        assert!(attacker.caps.subset_of(container.bounding));
        assert_eq!(attacker.lsm_profile.as_deref(), Some("docker-default"));
        // Confining twice is idempotent.
        let snapshot = attacker.clone();
        attacker.confine_to(&container);
        assert_eq!(attacker, snapshot);
    }
}
