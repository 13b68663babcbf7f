"""STAPL Parallel Container Framework core (Ch. IV–VII)."""

from .base_containers import (
    ArrayBC,
    BaseContainer,
    GraphBC,
    ListBC,
    MapBC,
    Matrix2DBC,
    MultiMapBC,
    SetBC,
    VectorBC,
)
from .distribution import DataDistributionManager
from .domains import (
    INVALID_GID,
    CartesianDomain,
    Domain,
    EnumeratedDomain,
    FilteredDomain,
    FiniteOrderedDomain,
    OpenDomain,
    OrderedDomain,
    Range2DDomain,
    RangeDomain,
    UniverseDomain,
    domain_difference,
    domain_intersection,
    domain_union,
    linearization,
)
from .location_manager import LocationManager
from .mappers import BlockedMapper, CyclicMapper, GeneralMapper, PartitionMapper
from .migration import (
    LookupCache,
    MigrationMixin,
    lpt_assignment,
)
from .memory import (
    MemoryReport,
    measure_memory,
    theoretical_parray_memory,
    theoretical_plist_memory,
)
from .partitions import (
    BalancedPartition,
    BCInfo,
    BlockCyclicPartition,
    BlockedPartition,
    DirectoryPartition,
    ExplicitPartition,
    HashPartition,
    ListPartition,
    Matrix2DPartition,
    Partition,
    RangePartition,
    UnbalancedBlockedPartition,
    balanced_sizes,
    split_domain,
    stable_hash,
)
from .pcontainer import (
    PartitionProxy,
    PContainerBase,
    PContainerDynamic,
    PContainerIndexed,
    PContainerStatic,
)
from .redistribution import RedistributableMixin
from .thread_safety import (
    BCONTAINER,
    ELEMENT,
    LOCAL,
    NONE,
    READ,
    WRITE,
    HashedLockManager,
    LockGranularity,
    LockingPolicy,
    NoLockManager,
    RWMode,
    ThreadSafetyManager,
)
from .traits import DEFAULT_TRAITS, ConsistencyMode, Traits
