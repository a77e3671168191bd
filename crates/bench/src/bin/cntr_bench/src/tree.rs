//! The seeded file tree meta-walk resolves, and its oracle.
//!
//! Shape: an 8-ary directory tree four levels deep under a two-component
//! prefix, four file slots per leaf directory. A file sits in its leaf (7
//! path components), one directory below it (8) or two below (9).
//!
//! Ranks, not the seed, carry the cost structure: rank `r` is a file of
//! depth class `r % 3`, every 16th rank is a symlink to the rank before it,
//! and a fixed stride spreads ranks over slots, so hot ranks share
//! directories alike under every seed. The seed names every component and
//! sizes every file, so different seeds resolve different paths of the same
//! shape — the spread between seeds measures the system, not the draw.

use crate::rng::Rng;
use cntr_engine::ImageBuilder;
use std::collections::{BTreeMap, BTreeSet};

/// Directory levels below the prefix.
const LEVELS: u32 = 4;
/// File slots per leaf directory.
const SLOTS: usize = 4;
/// Rank `r` sits in slot `r * SPREAD % n`: a prime larger than any tree,
/// so coprime with `n`, and consecutive ranks land far apart.
const SPREAD: usize = 1_000_003;
/// One rank in this many is a symlink.
pub const SYMLINK_EVERY: usize = 16;

/// One file (or symlink) of the tree, by rank.
pub struct Node {
    pub path: String,
    /// Logical size of a regular file (sparse in the image).
    pub size: u64,
    /// For a symlink, the rank of the regular file it points to.
    pub link: Option<usize>,
}

pub struct Tree {
    /// Nodes by rank: rank 0 is the hottest under the Zipf draw.
    pub nodes: Vec<Node>,
    /// Every directory at or below the prefix, with its sorted entries.
    pub dirs: BTreeMap<String, Vec<String>>,
}

impl Tree {
    /// Generates `n` nodes (rounded up to a whole leaf) under `prefix`.
    /// Symlink targets are absolute, so a tree reached through a bind
    /// mount elsewhere (the app's tree under `/var/lib/cntr`) is generated
    /// without them.
    pub fn generate(seed: u64, tag: u64, prefix: &str, n: usize, symlinks: bool) -> Tree {
        let n = n.max(SYMLINK_EVERY).div_ceil(SLOTS) * SLOTS;
        let mut names = Rng::derive(seed, tag);
        // Component names are drawn once per directory, in slot order, so
        // the namespace depends only on the seed.
        let mut level_names: Vec<BTreeMap<usize, String>> = vec![BTreeMap::new(); LEVELS as usize];
        let leaf_path =
            |leaf: usize, level_names: &mut Vec<BTreeMap<usize, String>>, rng: &mut Rng| {
                let mut path = prefix.to_string();
                for level in 0..LEVELS {
                    let shift = 3 * (LEVELS - 1 - level);
                    let key = leaf >> shift;
                    let digit = key & 7;
                    let name = level_names[level as usize]
                        .entry(key)
                        .or_insert_with(|| format!("{digit}{}", word(rng, 5)));
                    path.push('/');
                    path.push_str(name);
                }
                path
            };
        let slots: Vec<String> = (0..n)
            .map(|slot| {
                let leaf = leaf_path(slot / SLOTS, &mut level_names, &mut names);
                format!("{leaf}\u{0}{}", slot % SLOTS)
            })
            .collect();
        let mut sizes = Rng::derive(seed, tag + 2);
        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        for rank in 0..n {
            let slot = rank * SPREAD % n;
            let (leaf, idx) = slots[slot].split_once('\u{0}').expect("slot key");
            let mut path = leaf.to_string();
            for sub in 0..rank % 3 {
                path.push_str(&format!("/{}{idx}{}", ["s", "t"][sub], word(&mut names, 4)));
            }
            let is_link = symlinks && rank % SYMLINK_EVERY == SYMLINK_EVERY - 1;
            path.push_str(&format!(
                "/{}{idx}{}",
                if is_link { "l" } else { "f" },
                word(&mut names, 6)
            ));
            nodes.push(Node {
                path,
                size: 1 + sizes.below(8192),
                link: is_link.then(|| rank - 1),
            });
        }
        let mut dirs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for node in &nodes {
            let mut path = node.path.as_str();
            while let Some((parent, name)) = path.rsplit_once('/') {
                if parent.len() < prefix.len() {
                    break;
                }
                dirs.entry(parent.to_string())
                    .or_default()
                    .insert(name.to_string());
                path = parent;
            }
        }
        Tree {
            nodes,
            dirs: dirs
                .into_iter()
                .map(|(d, names)| (d, names.into_iter().collect()))
                .collect(),
        }
    }

    /// Ranks that are symlinks, hottest first.
    pub fn symlink_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        (SYMLINK_EVERY - 1..self.nodes.len()).step_by(SYMLINK_EVERY)
    }

    /// The parent directory of a node.
    pub fn parent(&self, rank: usize) -> &str {
        self.nodes[rank]
            .path
            .rsplit_once('/')
            .map(|(p, _)| p)
            .expect("absolute path")
    }

    /// The size `stat` (which follows symlinks) must report for a rank.
    pub fn followed_size(&self, rank: usize) -> u64 {
        let node = &self.nodes[rank];
        node.link.map_or(node.size, |t| self.nodes[t].size)
    }

    /// Adds every node to an image layer.
    pub fn add_to(&self, mut image: ImageBuilder) -> ImageBuilder {
        for node in &self.nodes {
            image = match node.link {
                Some(target) => image.symlink(&node.path, &self.nodes[target].path),
                None => image.file(&node.path, node.size),
            };
        }
        image
    }
}

fn word(rng: &mut Rng, len: usize) -> String {
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_depths_and_links_are_fixed_by_rank() {
        let t = Tree::generate(3, 0, "/usr/tools", 4096, true);
        assert_eq!(t.nodes.len(), 4096);
        for (rank, node) in t.nodes.iter().enumerate() {
            let comps = node.path.split('/').filter(|c| !c.is_empty()).count();
            assert_eq!(comps, 7 + rank % 3, "{}", node.path);
            assert_eq!(
                node.link.is_some(),
                rank % SYMLINK_EVERY == SYMLINK_EVERY - 1
            );
        }
        let paths: BTreeSet<&str> = t.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(paths.len(), t.nodes.len(), "paths are unique");
        for rank in 0..t.nodes.len() {
            let name = t.nodes[rank].path.rsplit('/').next().unwrap();
            assert!(t.dirs[t.parent(rank)].iter().any(|e| e == name));
        }
    }

    #[test]
    fn seed_changes_names_not_shape() {
        let a = Tree::generate(1, 0, "/p/q", 256, true);
        let b = Tree::generate(2, 0, "/p/q", 256, true);
        assert_ne!(a.nodes[0].path, b.nodes[0].path);
        assert_eq!(a.nodes.len(), b.nodes.len());
        assert_eq!(a.dirs.len(), b.dirs.len());
    }
}
