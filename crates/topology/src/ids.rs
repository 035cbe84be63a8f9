//! Typed identifiers.
//!
//! Every entity in the cluster model gets its own index newtype so that a
//! GPU index can never be confused with a NIC or link index. Identifiers
//! are dense indices assigned in creation order by [`crate::TopologyBuilder`].

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The dense index behind this id.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A physical host (server).
    HostId,
    "host"
);
id_type!(
    /// A GPU, globally indexed across the cluster.
    GpuId,
    "gpu"
);
id_type!(
    /// A NIC (or SR-IOV virtual NIC), globally indexed.
    NicId,
    "nic"
);
id_type!(
    /// A switch (leaf, spine, or generic).
    SwitchId,
    "sw"
);
id_type!(
    /// A directed link.
    LinkId,
    "link"
);
id_type!(
    /// A rack: the failure/locality domain directly above hosts.
    RackId,
    "rack"
);
id_type!(
    /// A pod: a group of racks sharing an aggregation layer.
    PodId,
    "pod"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(format!("{}", GpuId(3)), "gpu3");
        assert_eq!(format!("{:?}", LinkId(7)), "link7");
        assert_eq!(HostId(9).index(), 9);
    }

    #[test]
    #[allow(clippy::disallowed_types)] // checks that the ids hash
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(NicId(1));
        set.insert(NicId(1));
        set.insert(NicId(2));
        assert_eq!(set.len(), 2);
        assert!(NicId(1) < NicId(2));
    }
}
