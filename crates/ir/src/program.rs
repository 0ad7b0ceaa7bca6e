//! Functions and whole programs.

use crate::{BasicBlock, BlockId, CallGraph, FuncId, Terminator, ValidateError};

/// A function: a control-flow graph of basic blocks with one entry block.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub(crate) name: String,
    pub(crate) blocks: Vec<BasicBlock>,
    pub(crate) entry: BlockId,
}

impl Function {
    /// Builds a function directly from parts.
    ///
    /// Used by program transformations; prefer
    /// [`FunctionBuilder`](crate::FunctionBuilder) for new code. The
    /// containing [`Program`] validates entry and target ranges.
    #[must_use]
    pub fn from_parts(name: String, blocks: Vec<BasicBlock>, entry: BlockId) -> Self {
        Self {
            name,
            blocks,
            entry,
        }
    }

    /// The function's name (unique within its program).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Number of basic blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Access a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this function.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this function.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Iterates `(id, block)` pairs in id order.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::new(i), b))
    }

    /// All block ids of this function, in order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Total static size of the function in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.blocks.iter().map(BasicBlock::size_bytes).sum()
    }

    /// Appends a block, returning its id.
    ///
    /// Program transformations (e.g. inline expansion) extend functions;
    /// re-validate the containing program with
    /// [`Program::from_parts`] afterwards.
    pub fn push_block(&mut self, block: BasicBlock) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(block);
        id
    }

    /// Predecessor lists for every block, indexed by block id.
    ///
    /// A block appears once per incoming *edge source* (duplicates from a
    /// branch with identical arms are already collapsed by
    /// [`Terminator::successors`]).
    #[must_use]
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (id, block) in self.blocks() {
            for succ in block.terminator().successors() {
                preds[succ.index()].push(id);
            }
        }
        preds
    }
}

/// A whole program: functions plus a designated entry function.
///
/// `Program` is immutable once built (use [`ProgramBuilder`] to construct
/// one, and the layout passes to derive transformed copies); this keeps
/// every consumer — profiler, optimizer, trace generator — working from a
/// consistent, validated structure.
///
/// [`ProgramBuilder`]: crate::ProgramBuilder
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) funcs: Vec<Function>,
    pub(crate) entry: FuncId,
}

impl Program {
    /// Builds a program directly from parts, validating it.
    ///
    /// Most callers should prefer [`ProgramBuilder`]; this constructor
    /// exists for program transformations that rebuild function lists.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] describing the first structural problem
    /// found (dangling target, out-of-range entry, duplicate name, ...).
    ///
    /// [`ProgramBuilder`]: crate::ProgramBuilder
    pub fn from_parts(funcs: Vec<Function>, entry: FuncId) -> Result<Self, ValidateError> {
        let p = Self { funcs, entry };
        p.validate()?;
        Ok(p)
    }

    /// The program entry function (`main`).
    #[must_use]
    pub fn entry(&self) -> FuncId {
        self.entry
    }

    /// Number of functions.
    #[must_use]
    pub fn function_count(&self) -> usize {
        self.funcs.len()
    }

    /// Access a function by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    #[must_use]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Iterates `(id, function)` pairs in id order.
    pub fn functions(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId::new(i), f))
    }

    /// All function ids, in order.
    pub fn function_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len()).map(FuncId::new)
    }

    /// Looks up a function by name.
    #[must_use]
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::new)
    }

    /// Total static code size in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.funcs.iter().map(Function::size_bytes).sum()
    }

    /// Derives the static call graph (one [`CallSite`] per `Call`
    /// terminator).
    ///
    /// [`CallSite`]: crate::CallSite
    #[must_use]
    pub fn call_graph(&self) -> CallGraph {
        CallGraph::of(self)
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violation found:
    /// * the program has at least one function and a valid entry,
    /// * every function has at least one block and a valid entry block,
    /// * every terminator target (block or function) is in range,
    /// * every `Switch` has at least one arm with positive weight,
    /// * function names are unique and non-empty.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.funcs.is_empty() {
            return Err(ValidateError::EmptyProgram);
        }
        if self.entry.index() >= self.funcs.len() {
            return Err(ValidateError::BadEntryFunction { entry: self.entry });
        }
        let mut names = std::collections::HashSet::new();
        for (fid, func) in self.functions() {
            if func.name.is_empty() {
                return Err(ValidateError::EmptyFunctionName { func: fid });
            }
            if !names.insert(func.name.as_str()) {
                return Err(ValidateError::DuplicateFunctionName {
                    name: func.name.clone(),
                });
            }
            if func.blocks.is_empty() {
                return Err(ValidateError::EmptyFunction { func: fid });
            }
            if func.entry.index() >= func.blocks.len() {
                return Err(ValidateError::BadEntryBlock {
                    func: fid,
                    entry: func.entry,
                });
            }
            for (bid, block) in func.blocks() {
                let check_block = |target: BlockId| {
                    if target.index() >= func.blocks.len() {
                        Err(ValidateError::DanglingBlockTarget {
                            func: fid,
                            block: bid,
                            target,
                        })
                    } else {
                        Ok(())
                    }
                };
                match block.terminator() {
                    Terminator::Jump { target } => check_block(*target)?,
                    Terminator::Branch {
                        taken, not_taken, ..
                    } => {
                        check_block(*taken)?;
                        check_block(*not_taken)?;
                    }
                    Terminator::Switch { targets } => {
                        if !targets.iter().any(|(_, w)| *w > 0) {
                            return Err(ValidateError::UnselectableSwitch {
                                func: fid,
                                block: bid,
                            });
                        }
                        for (t, _) in targets {
                            check_block(*t)?;
                        }
                    }
                    Terminator::Call { callee, ret_to } => {
                        if callee.index() >= self.funcs.len() {
                            return Err(ValidateError::DanglingCallee {
                                func: fid,
                                block: bid,
                                callee: *callee,
                            });
                        }
                        check_block(*ret_to)?;
                    }
                    Terminator::Return | Terminator::Exit => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{BranchBias, Instr, ProgramBuilder, Terminator};

    use super::*;

    /// A two-function program: main calls helper in a loop.
    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let helper_id = pb.reserve("helper");
        let mut main = pb.function("main");
        let entry = main.block(vec![Instr::IntAlu; 2]);
        let call = main.block(vec![Instr::Load]);
        let check = main.block(vec![Instr::IntAlu]);
        let exit = main.block(vec![]);
        main.set_entry(entry);
        main.terminate(entry, Terminator::jump(call));
        main.terminate(call, Terminator::call(helper_id, check));
        main.terminate(
            check,
            Terminator::branch(call, exit, BranchBias::fixed(0.8)),
        );
        main.terminate(exit, Terminator::Exit);
        let main_id = main.finish();

        let mut helper = pb.function_reserved(helper_id);
        let h0 = helper.block(vec![Instr::IntAlu; 5]);
        helper.set_entry(h0);
        helper.terminate(h0, Terminator::Return);
        helper.finish();

        pb.set_entry(main_id);
        pb.finish().expect("sample program is valid")
    }

    #[test]
    fn sizes_add_up() {
        let p = sample();
        // main: (2+1) + (1+1) + (1+1) + (0+1) = 8 instrs; helper: 6 instrs.
        let instrs: u64 = p
            .functions()
            .flat_map(|(_, f)| f.blocks())
            .map(|(_, b)| b.instr_count())
            .sum();
        assert_eq!(instrs, 14);
        assert_eq!(p.total_bytes(), 14 * 4);
        let main = p.function(p.entry());
        assert_eq!(main.size_bytes(), 8 * 4);
    }

    #[test]
    fn function_lookup_by_name() {
        let p = sample();
        assert_eq!(p.function_by_name("main"), Some(p.entry()));
        assert!(p.function_by_name("helper").is_some());
        assert_eq!(p.function_by_name("nope"), None);
    }

    #[test]
    fn predecessors_are_reverse_edges() {
        let p = sample();
        let main = p.function(p.entry());
        let preds = main.predecessors();
        // Block 1 (call) has predecessors: entry (jump) and check (branch taken).
        assert_eq!(preds[1], vec![BlockId::new(0), BlockId::new(2)]);
        // Entry block has no predecessors.
        assert!(preds[0].is_empty());
    }

    #[test]
    fn validate_rejects_dangling_block_target() {
        let mut p = sample();
        p.funcs[0].blocks[0].set_terminator(Terminator::jump(BlockId::new(99)));
        assert!(matches!(
            p.validate(),
            Err(ValidateError::DanglingBlockTarget { .. })
        ));
    }

    #[test]
    fn validate_rejects_dangling_callee() {
        let mut p = sample();
        let main = p.entry.index();
        p.funcs[main].blocks[1].set_terminator(Terminator::call(FuncId::new(9), BlockId::new(2)));
        assert!(matches!(
            p.validate(),
            Err(ValidateError::DanglingCallee { .. })
        ));
    }

    #[test]
    fn validate_rejects_unselectable_switch() {
        let mut p = sample();
        p.funcs[0].blocks[0].set_terminator(Terminator::Switch {
            targets: vec![(BlockId::new(1), 0)],
        });
        assert!(matches!(
            p.validate(),
            Err(ValidateError::UnselectableSwitch { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_names() {
        let mut p = sample();
        let helper = p.function_by_name("helper").unwrap().index();
        p.funcs[helper].name = "main".to_owned();
        assert!(matches!(
            p.validate(),
            Err(ValidateError::DuplicateFunctionName { .. })
        ));
    }

    #[test]
    fn from_parts_validates() {
        let p = sample();
        let funcs = p.funcs.clone();
        assert!(Program::from_parts(funcs, FuncId::new(7)).is_err());
        assert!(Program::from_parts(p.funcs.clone(), p.entry).is_ok());
    }
}
