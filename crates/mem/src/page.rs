//! Virtual page identifiers.
//!
//! GPU workloads in the paper allocate input data on demand; when a GPU
//! kernel touches a page that is not yet resident it takes a *soft page
//! fault* that the host CPU must service (paper §III). Each such request
//! names the faulting page with a [`PageId`], which the IOMMU's page
//! walker turns into a virtual address.

/// Identifier of a 4 KiB virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);
