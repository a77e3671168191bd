//! The interactive shell started inside the nested namespace (step #4).
//!
//! "CNTR executes an interactive shell, within the nested namespace, that
//! the user can interact with. ... From the shell, or through the tools it
//! launches, the user can then access the application filesystem under
//! /var/lib/cntr and the tools filesystem in /" (paper §3.1).
//!
//! Tool binaries are resolved through `$PATH` (inherited from the *debug*
//! side, §3.2.3) and loaded with `exec` — i.e. read page by page through
//! CntrFS. The tool behaviours themselves are simulated: enough `ls`, `cat`,
//! `ps`, `gdb`, `strace` to demonstrate and test the paper's workflows
//! (debugging the app process, editing its config in place, inspecting its
//! `/proc`).

use crate::pty::Pty;
use cntr_kernel::vfs::Access;
use cntr_kernel::Kernel;
use cntr_types::{Errno, Mode, OpenFlags, Pid, SysResult};
use std::sync::Arc;

/// The shell bound to an attached process.
pub struct Shell {
    kernel: Kernel,
    pid: Pid,
    pty: Arc<Pty>,
}

impl Shell {
    /// Creates a shell running as `pid`, speaking over `pty`.
    pub fn new(kernel: Kernel, pid: Pid, pty: Arc<Pty>) -> Shell {
        Shell { kernel, pid, pty }
    }

    /// The process the shell runs as.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Executes one command line, returning its output (direct API; the
    /// pty-based loop uses this too).
    pub fn run(&self, line: &str) -> String {
        match self.eval(line) {
            Ok(out) => out,
            Err(e) => format!("sh: {e}\n"),
        }
    }

    /// Processes pending pty input: reads lines, executes them, writes
    /// output back. Returns the number of commands executed.
    pub fn pump(&self) -> usize {
        let mut executed = 0;
        while let Ok(Some(line)) = self.pty.shell_read_line() {
            let out = self.run(&line);
            let _ = self.pty.shell_write(&out);
            executed += 1;
        }
        executed
    }

    fn read_file(&self, path: &str) -> SysResult<Vec<u8>> {
        let fd = self
            .kernel
            .open(self.pid, path, OpenFlags::RDONLY, Mode::RW_R__R__)?;
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = self.kernel.read_fd(self.pid, fd, &mut buf)?;
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        self.kernel.close(self.pid, fd)?;
        Ok(out)
    }

    /// Resolves a tool name via `$PATH` and "executes" it: the binary is
    /// loaded (read through whatever filesystem serves it — CntrFS for fat
    /// tools), then its simulated behaviour runs.
    fn exec_tool(&self, name: &str, args: &[&str]) -> SysResult<String> {
        let path = if name.contains('/') {
            name.to_string()
        } else {
            let path_var = self
                .kernel
                .getenv(self.pid, "PATH")?
                .unwrap_or_else(|| "/usr/bin:/bin".to_string());
            let mut found = None;
            for dir in path_var.split(':').filter(|d| !d.is_empty()) {
                let candidate = format!("{dir}/{name}");
                if self.kernel.access(self.pid, &candidate, Access::X).is_ok() {
                    found = Some(candidate);
                    break;
                }
            }
            found.ok_or(Errno::ENOENT)?
        };
        // Load the binary (exec = mmap through the page cache).
        let image = self.kernel.exec_read(self.pid, &path)?;
        let _ = image;
        self.tool_behaviour(name.rsplit('/').next().unwrap_or(name), args)
    }

    /// The built-in behaviours of the simulated toolbox.
    fn tool_behaviour(&self, tool: &str, args: &[&str]) -> SysResult<String> {
        let k = &self.kernel;
        match tool {
            "ls" => {
                let path = args.first().copied().unwrap_or(".");
                let mut names: Vec<String> = k
                    .readdir(self.pid, path)?
                    .into_iter()
                    .map(|d| d.name)
                    .filter(|n| n != "." && n != "..")
                    .collect();
                names.sort();
                Ok(format!("{}\n", names.join(" ")))
            }
            "cat" => {
                let path = args.first().copied().ok_or(Errno::EINVAL)?;
                Ok(String::from_utf8_lossy(&self.read_file(path)?).to_string())
            }
            "ps" => {
                let mut out = String::from("PID CMD\n");
                for d in k.readdir(self.pid, "/proc")? {
                    if d.name.chars().all(|c| c.is_ascii_digit()) {
                        let status = self
                            .read_file(&format!("/proc/{}/cmdline", d.name))
                            .unwrap_or_default();
                        let cmd = String::from_utf8_lossy(&status);
                        let cmd = cmd.trim_end_matches('\0');
                        out.push_str(&format!("{} {}\n", d.name, cmd));
                    }
                }
                Ok(out)
            }
            "gdb" => {
                // `gdb -p <pid>`: attach to a process visible in /proc.
                let pid_arg = match args {
                    ["-p", p, ..] => p,
                    _ => return Ok("usage: gdb -p <pid>\n".to_string()),
                };
                let status = self.read_file(&format!("/proc/{pid_arg}/status"))?;
                let text = String::from_utf8_lossy(&status);
                let name = text
                    .lines()
                    .find_map(|l| l.strip_prefix("Name:\t"))
                    .unwrap_or("?");
                Ok(format!(
                    "GNU gdb (simulated)\nAttaching to process {pid_arg} ({name})... done\n(gdb) \n"
                ))
            }
            "strace" => {
                let pid_arg = match args {
                    ["-p", p, ..] => p,
                    _ => return Ok("usage: strace -p <pid>\n".to_string()),
                };
                self.read_file(&format!("/proc/{pid_arg}/status"))?;
                Ok(format!("strace: Process {pid_arg} attached\n"))
            }
            "stat" => {
                let path = args.first().copied().ok_or(Errno::EINVAL)?;
                let st = k.stat(self.pid, path)?;
                Ok(format!(
                    "File: {path}\nSize: {} Inode: {} Links: {} Mode: {}{}\nUid: {} Gid: {}\n",
                    st.size,
                    st.ino,
                    st.nlink,
                    st.ftype.ls_char(),
                    st.mode,
                    st.uid,
                    st.gid
                ))
            }
            "env" => {
                let info = k.proc_info(self.pid)?;
                let mut out = String::new();
                for (key, value) in info.env {
                    out.push_str(&format!("{key}={value}\n"));
                }
                Ok(out)
            }
            "hostname" => Ok(format!("{}\n", k.gethostname(self.pid)?)),
            "mount" => {
                let mut out = String::new();
                for (id, fstype) in k.mounts(self.pid)? {
                    out.push_str(&format!("{fstype} on {id} type {fstype}\n"));
                }
                Ok(out)
            }
            "tee" => {
                // `tee <file>` with input supplied as remaining args — the
                // "edit a config in place, then reload" workflow (§7).
                let path = args.first().copied().ok_or(Errno::EINVAL)?;
                let content = args[1..].join(" ");
                let fd = k.open(self.pid, path, OpenFlags::create(), Mode::RW_R__R__)?;
                let mut written = 0;
                let bytes = content.as_bytes();
                while written < bytes.len() {
                    written += k.write_fd(self.pid, fd, &bytes[written..])?;
                }
                k.close(self.pid, fd)?;
                Ok(format!("{content}\n"))
            }
            "touch" => {
                let path = args.first().copied().ok_or(Errno::EINVAL)?;
                let fd = k.open(
                    self.pid,
                    path,
                    OpenFlags::WRONLY.with(OpenFlags::CREAT),
                    Mode::RW_R__R__,
                )?;
                k.close(self.pid, fd)?;
                Ok(String::new())
            }
            other => Ok(format!("{other}: simulated tool executed\n")),
        }
    }

    fn eval(&self, line: &str) -> SysResult<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let (cmd, args) = parts.split_first().expect("non-empty checked");
        match *cmd {
            // Shell built-ins.
            "cd" => {
                let target = args.first().copied().unwrap_or("/");
                self.kernel.chdir(self.pid, target)?;
                Ok(String::new())
            }
            "pwd" => Ok(format!("{}\n", self.kernel.getcwd(self.pid)?)),
            "echo" => Ok(format!("{}\n", args.join(" "))),
            "exit" => Ok(String::new()),
            // Everything else resolves through $PATH and executes.
            tool => match self.exec_tool(tool, args) {
                Ok(out) => Ok(out),
                Err(Errno::ENOENT) => Ok(format!("sh: {tool}: command not found\n")),
                Err(e) => Ok(format!("sh: {tool}: {e}\n")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_engine::runtime::boot_host;
    use cntr_types::SimClock;

    fn host_shell() -> (Kernel, Shell) {
        let k = boot_host(SimClock::new());
        // A toolbox on the host.
        for tool in ["ls", "cat", "ps", "gdb", "env", "hostname"] {
            let fd = k
                .open(
                    Pid::INIT,
                    &format!("/usr/bin/{tool}"),
                    OpenFlags::create(),
                    Mode::RWXR_XR_X,
                )
                .unwrap();
            k.write_fd(Pid::INIT, fd, b"ELF-SIM").unwrap();
            k.close(Pid::INIT, fd).unwrap();
            k.chmod(Pid::INIT, &format!("/usr/bin/{tool}"), Mode::RWXR_XR_X)
                .unwrap();
        }
        k.setenv(Pid::INIT, "PATH", "/usr/bin").unwrap();
        let pty = Pty::new();
        let shell = Shell::new(k.clone(), Pid::INIT, pty);
        (k, shell)
    }

    #[test]
    fn builtins_and_tools() {
        let (k, sh) = host_shell();
        assert_eq!(sh.run("echo hello world"), "hello world\n");
        assert!(sh.run("ls /").contains("usr"));
        let fd = k
            .open(Pid::INIT, "/etc/motd", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.write_fd(Pid::INIT, fd, b"welcome\n").unwrap();
        k.close(Pid::INIT, fd).unwrap();
        assert_eq!(sh.run("cat /etc/motd"), "welcome\n");
        assert!(sh.run("ps").contains("1 init"));
        assert!(sh.run("gdb -p 1").contains("Attaching to process 1 (init)"));
        assert_eq!(sh.run("hostname"), "host\n");
    }

    #[test]
    fn missing_tool_reports_not_found() {
        let (_k, sh) = host_shell();
        assert_eq!(sh.run("perf record"), "sh: perf: command not found\n");
    }

    #[test]
    fn cd_and_pwd() {
        let (k, sh) = host_shell();
        k.mkdir(Pid::INIT, "/work", Mode::RWXR_XR_X).unwrap();
        sh.run("cd /work");
        assert_eq!(sh.run("pwd"), "/work\n");
        // `pwd` prints the physical path, as `pwd -P` does.
        k.mkdir(Pid::INIT, "/work/real", Mode::RWXR_XR_X).unwrap();
        k.symlink(Pid::INIT, "/work/real", "/link").unwrap();
        sh.run("cd /link");
        assert_eq!(sh.run("pwd"), "/work/real\n");
        // The cwd is the directory, so it follows a rename of an ancestor.
        k.rename(Pid::INIT, "/work", "/job", cntr_types::RenameFlags::NONE)
            .unwrap();
        assert_eq!(sh.run("pwd"), "/job/real\n");
    }

    #[test]
    fn pty_pump_loop() {
        let (_k, sh) = host_shell();
        let pty = Arc::clone(&sh.pty);
        pty.user_write_line("echo over-the-pty").unwrap();
        pty.user_write_line("hostname").unwrap();
        assert_eq!(sh.pump(), 2);
        let out = pty.user_read_all();
        assert!(out.contains("over-the-pty"));
        assert!(out.contains("host"));
    }
}
