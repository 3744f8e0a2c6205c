//! Fixtures: a head engine over member engines behind accounting-only
//! links, with every engine knob pinned through `EngineBuilder` so the
//! process environment cannot change the measured program.

use dhqp::{
    BatchConfig, BreakerConfig, DegradedMode, Engine, EngineBuilder, EngineDataSource, EventConfig,
    OptimizerConfig, ParallelConfig, PlanCacheConfig, QueryStoreConfig, RetryPolicy, TraceConfig,
};
use dhqp_netsim::{NetworkConfig, NetworkLink, NetworkedDataSource};
use dhqp_oledb::DataSource;
use dhqp_storage::StorageEngine;
use dhqp_types::{IntervalSet, Result, Value};
use dhqp_workload::accounts::create_account_partition;
use dhqp_workload::tpch::{self, TpchScale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// Member engines in every topology.
pub const MEMBERS: usize = 4;
/// Rows per `accounts_<i>` member table (oltp_mix).
pub const ACCOUNTS_PER_MEMBER: i64 = 25_000;
/// Remote statistics never expire within a run, so no refetch happens
/// mid-measurement.
const STATS_TTL: Duration = Duration::from_secs(24 * 3600);

/// Head configuration: `observe` arms the Query Store and the event bus
/// (the "leave it on" configuration); members always run with both off.
pub fn pinned_engine(name: &str, observe: bool) -> Engine {
    let optimizer = OptimizerConfig {
        enable_semijoin: true,
        semijoin_max_keys: 64,
        ..OptimizerConfig::default()
    };
    EngineBuilder::new(name)
        .optimizer_config(optimizer)
        // After `optimizer_config`: also pins the parallel-union rule off.
        .parallel_config(ParallelConfig::serial())
        .retry_policy(RetryPolicy::standard())
        .batch_config(BatchConfig::batched(dhqp_executor::DEFAULT_BATCH_SIZE))
        .plan_cache_config(PlanCacheConfig {
            enabled: true,
            capacity: 128,
        })
        .stats_ttl(STATS_TTL)
        .recent_query_capacity(dhqp::metrics::RECENT_QUERY_CAPACITY)
        .slow_query_threshold(None)
        .trace_config(TraceConfig::disabled())
        .event_config(if observe {
            EventConfig::all()
        } else {
            EventConfig::disabled()
        })
        .breaker_config(BreakerConfig::standard())
        .degraded_mode(DegradedMode::Fail)
        .runtime_prune(true)
        .query_store_config(QueryStoreConfig {
            enabled: observe,
            capacity: dhqp::query_store::DEFAULT_QUERY_STORE_CAPACITY,
        })
        .card_feedback(false)
        .build()
}

/// How each member source is assembled; the traced run wraps the link in
/// its timing forwarders, the measured run never does.
pub trait Wrap {
    fn wrap(
        &self,
        index: usize,
        link: NetworkLink,
        member: Arc<dyn DataSource>,
    ) -> Arc<dyn DataSource>;
}

/// The measured configuration: member behind a fault-free link.
pub struct Plain;

impl Wrap for Plain {
    fn wrap(
        &self,
        _index: usize,
        link: NetworkLink,
        member: Arc<dyn DataSource>,
    ) -> Arc<dyn DataSource> {
        Arc::new(NetworkedDataSource::reliable(member, link))
    }
}

pub struct Fixture {
    pub head: Engine,
    pub members: Vec<Engine>,
    /// One accounting-only link per member, in member order.
    pub links: Vec<NetworkLink>,
    /// The member sources as registered on the head.
    pub sources: Vec<Arc<dyn DataSource>>,
    /// `(member index, table)` of every partition table.
    pub tables: Vec<(usize, String)>,
}

fn link_name(i: usize) -> String {
    format!("m{i}")
}

fn federate(head: Engine, members: Vec<Engine>, wrap: &dyn Wrap) -> Fixture {
    let mut links = Vec::new();
    let mut sources = Vec::new();
    for (i, member) in members.iter().enumerate() {
        let link = NetworkLink::new(link_name(i), NetworkConfig::lan());
        let source = wrap.wrap(
            i,
            link.clone(),
            Arc::new(EngineDataSource::new(member.clone())),
        );
        head.add_linked_server(&link_name(i), Arc::clone(&source))
            .expect("registering a member link");
        links.push(link);
        sources.push(source);
    }
    Fixture {
        head,
        members,
        links,
        sources,
        tables: Vec::new(),
    }
}

fn members(prefix: &str) -> Vec<Engine> {
    (0..MEMBERS)
        .map(|i| pinned_engine(&format!("{prefix}-member{i}"), false))
        .collect()
}

/// Initial balance of every account for `seed`.
pub fn initial_balance(seed: u64) -> i64 {
    1_000 + (seed % 1_000) as i64
}

/// oltp_mix: `accounts_all` over `accounts_0..3`, 25k rows each.
pub fn oltp(seed: u64, wrap: &dyn Wrap) -> Result<Fixture> {
    let head = pinned_engine("oltp-head", true);
    let mut fx = federate(head, members("oltp"), wrap);
    let mut view = Vec::new();
    for i in 0..MEMBERS {
        let lo = i as i64 * ACCOUNTS_PER_MEMBER;
        let table = format!("accounts_{i}");
        let domain = create_account_partition(
            fx.members[i].storage(),
            &table,
            lo,
            lo + ACCOUNTS_PER_MEMBER - 1,
            initial_balance(seed),
        )?;
        fx.members[i].storage().analyze(&table, 16)?;
        view.push((Some(link_name(i)), table.clone(), domain));
        fx.tables.push((i, table));
    }
    fx.head
        .define_partitioned_view("accounts_all", "id", view)?;
    Ok(fx)
}

/// A second head over the same member sources with the Query Store and
/// event bus disarmed: the traced run's baseline for their cost.
pub fn disarmed_twin(fx: &Fixture) -> Result<Engine> {
    let twin = pinned_engine("oltp-twin", false);
    for (i, source) in fx.sources.iter().enumerate() {
        twin.add_linked_server(&link_name(i), Arc::clone(source))?;
    }
    let view = fx.head.partitioned_view("accounts_all").expect("defined");
    let members: Vec<(Option<String>, String, IntervalSet)> = view
        .members
        .iter()
        .map(|m| (m.server.clone(), m.table.clone(), m.check.clone()))
        .collect();
    twin.define_partitioned_view("accounts_all", "id", members)?;
    Ok(twin)
}

/// The federated_analytics data: 25k orders, 100k lineitems.
pub fn analytics_scale() -> TpchScale {
    TpchScale {
        nations: 25,
        customers: 2_500,
        suppliers: 200,
        orders: 25_000,
        lineitems_per_order: 4,
    }
}

/// Head-local TPC-H tables, generated from `seed` in a fixed order so the
/// reference engine holds the same rows.
fn load_head_tables(storage: &StorageEngine, scale: &TpchScale, seed: u64) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    tpch::create_nation(storage, scale)?;
    tpch::create_customer(storage, scale, &mut rng)?;
    tpch::create_supplier(storage, scale, &mut rng)?;
    tpch::create_orders(storage, scale, &mut rng)?;
    for t in ["nation", "customer", "supplier", "orders"] {
        storage.analyze(t, 24)?;
    }
    Ok(())
}

/// Head with local nation/customer/supplier/orders plus the 7-partition
/// `lineitem_all` DPV over the members (Query Store and events off).
pub fn tpch_federation(scale: &TpchScale, seed: u64, wrap: &dyn Wrap) -> Result<Fixture> {
    let head = pinned_engine("tpch-head", false);
    load_head_tables(head.storage(), scale, seed)?;
    let mut fx = federate(head, members("tpch"), wrap);
    let storages: Vec<&StorageEngine> = fx.members.iter().map(|m| m.storage().as_ref()).collect();
    let placed = tpch::create_lineitem_partitions(&storages, scale, seed)?;
    let mut view = Vec::new();
    for (i, table, domain) in placed {
        view.push((Some(link_name(i)), table.clone(), domain));
        fx.tables.push((i, table));
    }
    fx.head
        .define_partitioned_view("lineitem_all", "l_commitdate", view)?;
    Ok(fx)
}

/// One local engine holding the same seeded rows, with the lineitems in a
/// single table named like the view, so every statement runs unchanged.
pub fn tpch_reference(scale: &TpchScale, seed: u64) -> Result<Engine> {
    let reference = pinned_engine("reference", false);
    let storage = reference.storage();
    load_head_tables(storage, scale, seed)?;
    storage.create_table(dhqp_storage::TableDef::new(
        "lineitem_all",
        tpch::lineitem_schema(),
    ))?;
    let mut rng = StdRng::seed_from_u64(seed);
    storage.insert_rows("lineitem_all", &tpch::lineitem_rows(scale, &mut rng))?;
    storage.analyze("lineitem_all", 24)?;
    Ok(reference)
}

/// Parameters for one statement.
pub type Params = std::collections::HashMap<String, Value>;
