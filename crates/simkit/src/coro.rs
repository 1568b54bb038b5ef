//! Stackful coroutines: the one module in `simkit` allowed `unsafe`.
//!
//! Every simulated process runs on its own [`Coro`] stack, on the thread
//! that drives the [`Simulation`](crate::Simulation). Blocking is a
//! user-space stack switch ([`suspend`]) back to whoever called
//! [`Coro::resume`]; no OS thread is created and the OS scheduler is
//! never involved.
//!
//! # Safety invariants
//!
//! 1. **Stacks outlive their frames.** A coroutine's stack holds live
//!    frames from its first resume until its body returns or unwinds to
//!    the base. Only then is the stack recycled; dropping a coroutine that
//!    started but did not finish leaks its stack instead of freeing memory
//!    under live frames.
//! 2. **Switches look like calls.** `switch` saves every callee-saved
//!    register of the platform ABI on the stack it leaves (x86_64 SysV:
//!    rbx, rbp, r12–r15, MXCSR and the x87 control word; aarch64:
//!    x19–x29, lr, d8–d15) and restores the other side's, so the compiler
//!    sees an ordinary `extern "C"` call on both sides.
//! 3. **Panics never cross the base.** `entry` runs the body under
//!    `catch_unwind` and hands the payload to the resumer; nothing unwinds
//!    into the trampoline, whose return slot is 0 so backtraces stop there.
//! 4. **No switch while unwinding.** The thread's panic count is shared by
//!    every coroutine on it, so [`suspend`] aborts rather than leave a
//!    coroutine mid-unwind.
//! 5. **One thread.** [`Coro`] is `!Send`: its stack belongs to the
//!    thread that resumes it. [`suspend`] only leaves the coroutine the
//!    current thread is running (tracked in a thread-local) and panics
//!    outside one.
//!
//! Supported targets are x86_64 and aarch64 Linux; anything else fails to
//! compile rather than fall back to a second mechanism.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::ffi::{c_int, c_long, c_void};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("simkit's coroutine kernel supports x86_64 and aarch64 Linux only");

/// Usable bytes per coroutine stack (the guard page comes on top).
pub(crate) const STACK_SIZE: usize = 512 * 1024;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

// Linux values, identical on x86_64 and aarch64.
const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;
const SC_PAGESIZE: c_int = 30;

/// One mmap'd stack: a `PROT_NONE` guard page at the low end, then
/// [`STACK_SIZE`] bytes. Anonymous pages are committed on first touch, so
/// a fresh stack costs only the pages its frames reach.
struct Stack {
    base: *mut c_void,
    len: usize,
}

impl Stack {
    fn new() -> Stack {
        // SAFETY: sysconf has no preconditions.
        let page = unsafe { sysconf(SC_PAGESIZE) }.max(4096) as usize;
        let len = STACK_SIZE.next_multiple_of(page) + page;
        // SAFETY: a fresh anonymous private mapping aliases nothing.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            panic!(
                "simkit: mmap of a {len}-byte process stack failed: {}",
                std::io::Error::last_os_error()
            );
        }
        // SAFETY: the first page lies inside the mapping made above.
        if unsafe { mprotect(base, page, PROT_NONE) } != 0 {
            panic!(
                "simkit: guard page mprotect failed: {}",
                std::io::Error::last_os_error()
            );
        }
        Stack { base, len }
    }

    /// Highest address (exclusive); page-aligned, so 16-byte aligned.
    fn top(&self) -> usize {
        self.base as usize + self.len
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is ours and, by invariant 1, holds no live
        // frames once a `Stack` is dropped.
        unsafe { munmap(self.base, self.len) };
    }
}

/// Free list of stacks from finished coroutines.
#[derive(Default)]
pub(crate) struct StackPool {
    free: Vec<Stack>,
}

impl StackPool {
    fn take(&mut self) -> Stack {
        self.free.pop().unwrap_or_else(Stack::new)
    }
}

/// The switch-shared control block of one coroutine. Heap-allocated so
/// its address is stable while either side holds a raw pointer to it.
struct Ctl {
    /// The coroutine's saved stack pointer while it is suspended.
    sp: usize,
    /// The resumer's saved stack pointer while the coroutine runs.
    caller_sp: usize,
    body: Option<Box<dyn FnOnce()>>,
    /// Set by `entry` just before its last switch out.
    result: Option<Result<(), Box<dyn Any + Send>>>,
}

thread_local! {
    /// Control block of the coroutine this thread is running, or null.
    static CURRENT: Cell<*mut Ctl> = const { Cell::new(ptr::null_mut()) };
}

/// A stackful coroutine running a boxed body on its own stack.
pub(crate) struct Coro {
    ctl: *mut Ctl,
    stack: Option<Stack>,
    started: bool,
    done: bool,
}

impl Coro {
    /// Prepare `body` to run on a stack from `pool`. Nothing runs until
    /// the first [`Coro::resume`].
    pub(crate) fn new(pool: &mut StackPool, body: Box<dyn FnOnce()>) -> Coro {
        let stack = pool.take();
        let ctl = Box::into_raw(Box::new(Ctl {
            sp: 0,
            caller_sp: 0,
            body: Some(body),
            result: None,
        }));
        // SAFETY: `ctl` is a fresh allocation; `init_frame` writes only
        // the top of a stack no one else uses.
        unsafe { (*ctl).sp = arch::init_frame(stack.top(), ctl) };
        Coro {
            ctl,
            stack: Some(stack),
            started: false,
            done: false,
        }
    }

    /// Run the coroutine until it suspends (`None`) or its body finishes
    /// (`Some`, with the panic payload if it unwound).
    pub(crate) fn resume(&mut self) -> Option<Result<(), Box<dyn Any + Send>>> {
        assert!(!self.done, "resumed a finished coroutine");
        self.started = true;
        let prev = CURRENT.replace(self.ctl);
        // SAFETY: `ctl` is live (owned by `self`); its `sp` was saved by
        // `init_frame` or by `suspend`, and by invariant 1 the stack it
        // points into is intact.
        unsafe { arch::switch(ptr::addr_of_mut!((*self.ctl).caller_sp), (*self.ctl).sp) };
        CURRENT.set(prev);
        // SAFETY: the coroutine is switched out; we are the only user.
        let result = unsafe { (*self.ctl).result.take() };
        self.done = result.is_some();
        result
    }

    /// Return a finished coroutine's stack to `pool`.
    pub(crate) fn recycle(mut self, pool: &mut StackPool) {
        if self.done {
            pool.free.extend(self.stack.take());
        }
    }
}

impl Drop for Coro {
    fn drop(&mut self) {
        if self.started && !self.done {
            // Live frames remain on the stack (invariant 1): leak it and
            // the control block rather than free them under those frames.
            std::mem::forget(self.stack.take());
            return;
        }
        // SAFETY: finished or never started, so no frame refers to `ctl`;
        // dropping it drops an unstarted body.
        drop(unsafe { Box::from_raw(self.ctl) });
    }
}

/// Switch from the running coroutine back to its resumer; returns when
/// the coroutine is next resumed.
///
/// # Panics
///
/// Outside a coroutine. Aborts the process if the thread is unwinding
/// (invariant 4).
pub(crate) fn suspend() {
    let ctl = CURRENT.get();
    assert!(
        !ctl.is_null(),
        "simkit: suspend outside a process coroutine"
    );
    if std::thread::panicking() {
        eprintln!("simkit: a process tried to block while unwinding; aborting");
        std::process::abort();
    }
    // SAFETY: `ctl` belongs to the coroutine running on this stack; its
    // `caller_sp` was saved by the `resume` that entered it.
    unsafe { arch::switch(ptr::addr_of_mut!((*ctl).sp), (*ctl).caller_sp) };
}

/// First Rust frame on every coroutine stack, called by the trampoline.
/// `extern "C"`, so a panic escaping it (there is none: the body runs
/// under `catch_unwind`) would abort instead of unwinding into asm.
extern "C" fn entry(ctl: *mut Ctl) -> ! {
    // SAFETY: `ctl` was passed by `init_frame` and is live while the
    // coroutine runs; the resumer does not touch it until we switch out.
    unsafe {
        let body = (*ctl).body.take().expect("coroutine body already taken");
        // Everything with a destructor is consumed before the last switch:
        // nothing is left to drop on a stack that is never resumed.
        (*ctl).result = Some(catch_unwind(AssertUnwindSafe(body)));
        arch::switch(ptr::addr_of_mut!((*ctl).sp), (*ctl).caller_sp);
    }
    // A finished coroutine is never resumed (`Coro::resume` asserts).
    std::process::abort()
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::{entry, Ctl};
    use std::arch::naked_asm;

    /// Default MXCSR (all exceptions masked, round to nearest) in the low
    /// 32 bits and the default x87 control word above it.
    const FP_CONTROL: usize = 0x1F80 | (0x037F << 32);

    /// Save the callee-saved state on the current stack, store the stack
    /// pointer to `*save`, switch to `load` and restore from there.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(save: *mut usize, load: usize) {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// Entered by `switch`'s `ret` on a fresh stack with the control block
    /// in r12 and rsp 16-byte aligned; the word above is the 0 return slot.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        naked_asm!("mov rdi, r12", "call {entry}", "ud2", entry = sym entry)
    }

    /// Lay out the frame `switch` restores on a fresh stack. Returns the
    /// stack pointer to switch to.
    ///
    /// # Safety
    ///
    /// `top` must be the 16-byte-aligned top of a writable stack of at
    /// least 80 bytes that nothing else uses.
    pub(super) unsafe fn init_frame(top: usize, ctl: *mut Ctl) -> usize {
        let sp = top - 80;
        let words: [usize; 10] = [
            FP_CONTROL,
            0,                                // r15
            0,                                // r14
            0,                                // r13
            ctl as usize,                     // r12
            0,                                // rbx
            0,                                // rbp: end of the frame-pointer chain
            trampoline as *const () as usize, // popped by `ret`
            0,                                // return slot seen by unwinders
            0,                                // padding to the aligned top
        ];
        (sp as *mut [usize; 10]).write(words);
        sp
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use super::{entry, Ctl};
    use std::arch::naked_asm;

    /// Save the callee-saved state on the current stack, store the stack
    /// pointer to `*save`, switch to `load` and restore from there.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(save: *mut usize, load: usize) {
        naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp, #0]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x2, sp",
            "str x2, [x0]",
            "mov sp, x1",
            "ldp x19, x20, [sp, #0]",
            "ldp x21, x22, [sp, #16]",
            "ldp x23, x24, [sp, #32]",
            "ldp x25, x26, [sp, #48]",
            "ldp x27, x28, [sp, #64]",
            "ldp x29, x30, [sp, #80]",
            "ldp d8, d9, [sp, #96]",
            "ldp d10, d11, [sp, #112]",
            "ldp d12, d13, [sp, #128]",
            "ldp d14, d15, [sp, #144]",
            "add sp, sp, #160",
            "ret",
        )
    }

    /// Entered by `switch`'s `ret` on a fresh stack with the control block
    /// in x19 and a zero frame pointer, which ends the frame chain.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        naked_asm!("mov x0, x19", "bl {entry}", "brk #1", entry = sym entry)
    }

    /// Lay out the frame `switch` restores on a fresh stack. Returns the
    /// stack pointer to switch to.
    ///
    /// # Safety
    ///
    /// `top` must be the 16-byte-aligned top of a writable stack of at
    /// least 160 bytes that nothing else uses.
    pub(super) unsafe fn init_frame(top: usize, ctl: *mut Ctl) -> usize {
        let sp = top - 160;
        // x19–x28, then x29 = 0 (end of the frame-pointer chain) and
        // x30 = the trampoline, taken by `ret`; d8–d15 start at zero.
        let mut words = [0usize; 20];
        words[0] = ctl as usize;
        words[11] = trampoline as *const () as usize;
        (sp as *mut [usize; 20]).write(words);
        sp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn resume_and_suspend_interleave() {
        let mut pool = StackPool::default();
        let log = Rc::new(Cell::new(0u32));
        let l2 = Rc::clone(&log);
        let mut c = Coro::new(
            &mut pool,
            Box::new(move || {
                l2.set(1);
                suspend();
                l2.set(2);
            }),
        );
        assert!(c.resume().is_none());
        assert_eq!(log.get(), 1);
        assert!(matches!(c.resume(), Some(Ok(()))));
        assert_eq!(log.get(), 2);
        c.recycle(&mut pool);
        assert_eq!(pool.free.len(), 1);
    }

    #[test]
    fn panic_payload_reaches_the_resumer() {
        let mut pool = StackPool::default();
        let mut c = Coro::new(&mut pool, Box::new(|| std::panic::panic_any(7u32)));
        let payload = c.resume().unwrap().unwrap_err();
        assert_eq!(payload.downcast_ref::<u32>(), Some(&7));
    }

    #[test]
    #[should_panic(expected = "outside a process coroutine")]
    fn suspend_outside_a_coroutine_panics() {
        suspend();
    }

    #[test]
    fn unstarted_coroutine_drops_its_body() {
        let mut pool = StackPool::default();
        let token = Rc::new(());
        let t2 = Rc::clone(&token);
        let c = Coro::new(&mut pool, Box::new(move || drop(t2)));
        drop(c);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn floats_survive_a_switch() {
        let mut pool = StackPool::default();
        let out = Rc::new(Cell::new(0.0f64));
        let o2 = Rc::clone(&out);
        let mut c = Coro::new(
            &mut pool,
            Box::new(move || {
                let x = std::hint::black_box(1.5f64);
                suspend();
                o2.set(x * 2.0);
            }),
        );
        c.resume();
        let y = std::hint::black_box(0.25f64);
        c.resume();
        assert_eq!(out.get() + y, 3.25);
    }
}
