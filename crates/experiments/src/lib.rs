//! Reproduction harness for every table of the ISCA 1989 IMPACT-I paper.
//!
//! The paper's evaluation is nine tables (it has no numbered figures);
//! each has a module in [`tables`]:
//!
//! | module | paper table | content |
//! |--------|-------------|---------|
//! | [`tables::t1`] | Table 1 | Smith's fully-associative design targets vs. our unoptimized fully-associative baseline |
//! | [`tables::t2`] | Table 2 | benchmark profile characteristics |
//! | [`tables::t3`] | Table 3 | inline expansion results |
//! | [`tables::t4`] | Table 4 | trace selection results |
//! | [`tables::t5`] | Table 5 | static and dynamic code sizes |
//! | [`tables::t6`] | Table 6 | miss/traffic vs. cache size (64 B blocks) |
//! | [`tables::t7`] | Table 7 | miss/traffic vs. block size (2 KB cache) |
//! | [`tables::t8`] | Table 8 | sectoring and partial loading |
//! | [`tables::t9`] | Table 9 | code scaling × partial loading |
//!
//! [`prepare`] runs the full placement pipeline once per benchmark and is
//! shared by all cache-simulation tables; [`sim`] streams evaluation
//! traces into banks of cache configurations. The one list
//! [`runner::TABLES`] names all seventeen tables (the paper's nine, then
//! the reproduction's extras), and the `repro` binary renders any of them
//! (or all) as text and optionally as JSON.
//!
//! # Example: regenerate the headline result
//!
//! ```no_run
//! use impact_experiments::session::SimSession;
//! use impact_experiments::{prepare, tables};
//!
//! let prepared = prepare::prepare_all(&prepare::Budget::default());
//! let mut session = SimSession::new();
//! let plan = tables::t6::plan(&mut session, &prepared);
//! session.execute();
//! let rows = tables::t6::finish(&session, &plan);
//! println!("{}", tables::t6::render(&rows));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod fmt;
pub mod persist;
pub mod prepare;
pub mod runner;
pub mod session;
pub mod sim;
pub mod tables;
pub mod viz;
